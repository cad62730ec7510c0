// Package experiments regenerates every table and figure of the paper's
// Section 6 evaluation on the synthetic Table-1-shaped datasets: Table 3
// (accuracy retrieving killed-off matches), Table 4 (first iterations and
// explanations), the §6.2 hash-blocker and learned-blocker debugging
// studies, Figure 9 (top-k module scaling), and the §6.5 ablations and
// sensitivity analyses.
package experiments

import (
	"fmt"
	"sync"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/datagen"
)

// Env caches generated datasets and blocker outputs so that sweeps over
// many blockers and k values do not regenerate or reblock. Scale < 1
// shrinks every profile (rows and matches) for quick runs; results keep
// the paper's shape at reduced size.
type Env struct {
	Scale float64

	mu       sync.Mutex
	datasets map[string]*datagen.Dataset
	outputs  map[string]*blocker.PairSet
}

// NewEnv creates an experiment environment at the given scale (1 = the
// profiles' recorded sizes).
func NewEnv(scale float64) *Env {
	if scale <= 0 {
		scale = 1
	}
	return &Env{
		Scale:    scale,
		datasets: map[string]*datagen.Dataset{},
		outputs:  map[string]*blocker.PairSet{},
	}
}

// profileByName returns the named Table-1 profile.
func profileByName(name string) (datagen.Profile, error) {
	for _, p := range datagen.AllProfiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return datagen.Profile{}, fmt.Errorf("experiments: unknown dataset %q", name)
}

// Dataset returns (generating and caching) the named dataset at the
// environment's scale.
func (e *Env) Dataset(name string) (*datagen.Dataset, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if d, ok := e.datasets[name]; ok {
		return d, nil
	}
	p, err := profileByName(name)
	if err != nil {
		return nil, err
	}
	if e.Scale != 1 {
		p = p.Scaled(e.Scale)
	}
	d, err := datagen.Generate(p)
	if err != nil {
		return nil, err
	}
	e.datasets[name] = d
	return d, nil
}

// Block returns (computing and caching) the blocker's output on the named
// dataset.
func (e *Env) Block(dataset string, q blocker.Blocker) (*datagen.Dataset, *blocker.PairSet, error) {
	d, err := e.Dataset(dataset)
	if err != nil {
		return nil, nil, err
	}
	key := dataset + "/" + q.Name()
	e.mu.Lock()
	c, ok := e.outputs[key]
	e.mu.Unlock()
	if ok {
		return d, c, nil
	}
	c, err = q.Block(d.A, d.B)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: blocking %s with %s: %w", dataset, q.Name(), err)
	}
	e.mu.Lock()
	e.outputs[key] = c
	e.mu.Unlock()
	return d, c, nil
}

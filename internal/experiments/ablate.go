package experiments

import (
	"fmt"
	"time"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/config"
	"matchcatcher/internal/core"
	"matchcatcher/internal/metrics"
	"matchcatcher/internal/oracle"
	"matchcatcher/internal/ranker"
	"matchcatcher/internal/ssjoin"
)

// MultiConfigRow compares multiple configs against the single-config
// baseline of [29] (§6.5: multiple configs retrieve 10-74% more matches).
type MultiConfigRow struct {
	Dataset     string
	Blocker     string
	MESingle    int // matches in E with one concatenate-everything config
	MEMulti     int // matches in E with the config tree
	IncreasePct float64
}

// RunMultiConfigAblation measures M_E with the full config tree vs the
// single root config.
func (e *Env) RunMultiConfigAblation(specs []Spec, opt DebugOptions) ([]MultiConfigRow, error) {
	var rows []MultiConfigRow
	for _, s := range specs {
		d, c, err := e.Block(s.Dataset, s.Blocker)
		if err != nil {
			return rows, err
		}
		res, err := config.Generate(d.A, d.B, config.Options{})
		if err != nil {
			return rows, err
		}
		cor := ssjoin.NewCorpus(d.A, d.B, res)
		k := opt.K
		if k == 0 {
			k = 1000
		}
		multi := ssjoin.JoinAll(cor, c, ssjoin.Options{K: k})
		meMulti := matchesInLists(d.Gold, multi.Lists)
		single := ssjoin.JoinOne(cor, res.Root.Mask, c, ssjoin.Options{K: k})
		meSingle := matchesInLists(d.Gold, []ssjoin.TopKList{single})
		row := MultiConfigRow{Dataset: s.Dataset, Blocker: s.Label, MESingle: meSingle, MEMulti: meMulti}
		if meSingle > 0 {
			row.IncreasePct = 100 * float64(meMulti-meSingle) / float64(meSingle)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func matchesInLists(gold *blocker.PairSet, lists []ssjoin.TopKList) int {
	e := blocker.NewPairSet()
	for _, l := range lists {
		for _, p := range l.Pairs {
			e.Add(int(p.A), int(p.B))
		}
	}
	return metrics.Intersection(gold, e)
}

// LongAttrRow compares E-recall with and without long-attribute handling
// (§6.5: handling long attributes improves recall of E by up to 11%).
type LongAttrRow struct {
	Dataset    string
	Blocker    string
	MD         int
	MEHandled  int
	MEDisabled int
}

// RunLongAttrAblation measures M_E with FindLongAttr on vs off.
func (e *Env) RunLongAttrAblation(specs []Spec, opt DebugOptions) ([]LongAttrRow, error) {
	var rows []LongAttrRow
	for _, s := range specs {
		d, c, err := e.Block(s.Dataset, s.Blocker)
		if err != nil {
			return rows, err
		}
		k := opt.K
		if k == 0 {
			k = 1000
		}
		me := func(disable bool) (int, error) {
			res, err := config.Generate(d.A, d.B, config.Options{DisableLongAttr: disable})
			if err != nil {
				return 0, err
			}
			cor := ssjoin.NewCorpus(d.A, d.B, res)
			jr := ssjoin.JoinAll(cor, c, ssjoin.Options{K: k})
			return matchesInLists(d.Gold, jr.Lists), nil
		}
		handled, err := me(false)
		if err != nil {
			return rows, err
		}
		disabled, err := me(true)
		if err != nil {
			return rows, err
		}
		rows = append(rows, LongAttrRow{
			Dataset: s.Dataset, Blocker: s.Label,
			MD:        d.GoldCount() - metrics.Intersection(d.Gold, c),
			MEHandled: handled, MEDisabled: disabled,
		})
	}
	return rows, nil
}

// JointRow compares joint execution against one-config-at-a-time
// execution (§6.5: joint processing is up to 3.5x faster).
type JointRow struct {
	Dataset    string
	Blocker    string
	JointSec   float64
	IndivSec   float64
	SpeedupX   float64
	ReusedPct  float64 // share of scores answered from the overlap DB
	ConfigsRun int
}

// RunJointAblation times JoinAll vs per-config JoinOne runs.
func (e *Env) RunJointAblation(specs []Spec, opt DebugOptions) ([]JointRow, error) {
	var rows []JointRow
	for _, s := range specs {
		d, c, err := e.Block(s.Dataset, s.Blocker)
		if err != nil {
			return rows, err
		}
		res, err := config.Generate(d.A, d.B, config.Options{})
		if err != nil {
			return rows, err
		}
		cor := ssjoin.NewCorpus(d.A, d.B, res)
		k := opt.K
		if k == 0 {
			k = 1000
		}
		start := time.Now()
		jr := ssjoin.JoinAll(cor, c, ssjoin.Options{K: k, ReuseMinAvgTokens: 1})
		joint := time.Since(start).Seconds()
		start = time.Now()
		for _, m := range res.Configs() {
			ssjoin.JoinOne(cor, m, c, ssjoin.Options{K: k})
		}
		indiv := time.Since(start).Seconds()
		row := JointRow{
			Dataset: s.Dataset, Blocker: s.Label,
			JointSec: joint, IndivSec: indiv, ConfigsRun: len(res.Configs()),
		}
		if joint > 0 {
			row.SpeedupX = indiv / joint
		}
		reused, scratch := jr.Stats.ReusedScores, jr.Stats.ScratchScores
		if total := reused + scratch; total > 0 {
			row.ReusedPct = 100 * float64(reused) / float64(total)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// VerifierRow compares the learning verifier against the WMR baseline
// within a bounded number of iterations (§6.5: active/online learning
// significantly outperforms WMR).
type VerifierRow struct {
	Dataset    string
	Blocker    string
	Iterations int
	FoundAL    int
	FoundWMR   int
}

// RunVerifierAblation runs both verifier modes for a fixed number of
// iterations on the same lists.
func (e *Env) RunVerifierAblation(specs []Spec, iters int, opt DebugOptions) ([]VerifierRow, error) {
	var rows []VerifierRow
	for _, s := range specs {
		d, c, err := e.Block(s.Dataset, s.Blocker)
		if err != nil {
			return rows, err
		}
		run := func(mode ranker.Mode) (int, error) {
			copt := opt.core()
			copt.Verifier.Mode = mode
			copt.Verifier.MaxIterations = iters
			copt.Verifier.StopAfterEmpty = iters // compare at equal label budgets
			dbg, err := core.New(d.A, d.B, c, copt)
			if err != nil {
				return 0, err
			}
			u := oracle.New(d.Gold, 0, opt.Seed+23)
			return len(dbg.Run(u.Label).Matches), nil
		}
		al, err := run(ranker.ModeLearning)
		if err != nil {
			return rows, err
		}
		wmr, err := run(ranker.ModeWMR)
		if err != nil {
			return rows, err
		}
		rows = append(rows, VerifierRow{Dataset: s.Dataset, Blocker: s.Label, Iterations: iters, FoundAL: al, FoundWMR: wmr})
	}
	return rows, nil
}

// SensitivityPoint is one k-sensitivity measurement (§6.5: larger k
// retrieves more matches up to a point, at higher runtime).
type SensitivityPoint struct {
	Dataset string
	Blocker string
	K       int
	ME      int
	Seconds float64
}

// RunSensitivityK sweeps k for one blocker.
func (e *Env) RunSensitivityK(s Spec, ks []int) ([]SensitivityPoint, error) {
	d, c, err := e.Block(s.Dataset, s.Blocker)
	if err != nil {
		return nil, err
	}
	res, err := config.Generate(d.A, d.B, config.Options{})
	if err != nil {
		return nil, err
	}
	cor := ssjoin.NewCorpus(d.A, d.B, res)
	var points []SensitivityPoint
	for _, k := range ks {
		start := time.Now()
		jr := ssjoin.JoinAll(cor, c, ssjoin.Options{K: k})
		points = append(points, SensitivityPoint{
			Dataset: s.Dataset, Blocker: s.Label, K: k,
			ME:      matchesInLists(d.Gold, jr.Lists),
			Seconds: time.Since(start).Seconds(),
		})
	}
	return points, nil
}

// ALSensitivityPoint measures matches found in a fixed iteration budget
// as the number of hybrid active-learning iterations varies (§6.5: 3 is a
// good balance).
type ALSensitivityPoint struct {
	Dataset string
	Blocker string
	ALIters int
	Found   int
}

// RunSensitivityAL sweeps the hybrid AL iteration count.
func (e *Env) RunSensitivityAL(s Spec, alIters []int, budget int, opt DebugOptions) ([]ALSensitivityPoint, error) {
	d, c, err := e.Block(s.Dataset, s.Blocker)
	if err != nil {
		return nil, err
	}
	var points []ALSensitivityPoint
	for _, al := range alIters {
		copt := opt.core()
		copt.Verifier.ALIterations = al
		if al == 0 {
			copt.Verifier.ALIterations = -1 // 0 means "no hybrid phase" here
		}
		copt.Verifier.MaxIterations = budget
		copt.Verifier.StopAfterEmpty = budget
		dbg, err := core.New(d.A, d.B, c, copt)
		if err != nil {
			return points, err
		}
		u := oracle.New(d.Gold, 0, opt.Seed+29)
		points = append(points, ALSensitivityPoint{
			Dataset: s.Dataset, Blocker: s.Label, ALIters: al,
			Found: len(dbg.Run(u.Label).Matches),
		})
	}
	return points, nil
}

// Formatting helpers for the ablation reports.

// FormatMultiConfig renders the multi-config ablation.
func FormatMultiConfig(rows []MultiConfigRow) string {
	t := &metrics.Table{Headers: []string{"Dataset", "Q", "M_E single", "M_E multi", "increase"}}
	for _, r := range rows {
		t.Add(r.Dataset, r.Blocker, r.MESingle, r.MEMulti, fmt.Sprintf("%.0f%%", r.IncreasePct))
	}
	return t.String()
}

// FormatLongAttr renders the long-attribute ablation.
func FormatLongAttr(rows []LongAttrRow) string {
	t := &metrics.Table{Headers: []string{"Dataset", "Q", "M_D", "M_E handled", "M_E disabled", "delta"}}
	for _, r := range rows {
		t.Add(r.Dataset, r.Blocker, r.MD, r.MEHandled, r.MEDisabled,
			fmt.Sprintf("%+d", r.MEHandled-r.MEDisabled))
	}
	return t.String()
}

// FormatJoint renders the joint-execution ablation.
func FormatJoint(rows []JointRow) string {
	t := &metrics.Table{Headers: []string{"Dataset", "Q", "configs", "joint(s)", "individual(s)", "speedup", "reused"}}
	for _, r := range rows {
		t.Add(r.Dataset, r.Blocker, r.ConfigsRun,
			fmt.Sprintf("%.2f", r.JointSec), fmt.Sprintf("%.2f", r.IndivSec),
			fmt.Sprintf("%.2fx", r.SpeedupX), fmt.Sprintf("%.0f%%", r.ReusedPct))
	}
	return t.String()
}

// FormatVerifierAblation renders the AL-vs-WMR comparison.
func FormatVerifierAblation(rows []VerifierRow) string {
	t := &metrics.Table{Headers: []string{"Dataset", "Q", "iters", "found (AL)", "found (WMR)"}}
	for _, r := range rows {
		t.Add(r.Dataset, r.Blocker, r.Iterations, r.FoundAL, r.FoundWMR)
	}
	return t.String()
}

// FormatSensitivityK renders the k sweep.
func FormatSensitivityK(points []SensitivityPoint) string {
	t := &metrics.Table{Headers: []string{"Dataset", "Q", "k", "M_E", "time(s)"}}
	for _, p := range points {
		t.Add(p.Dataset, p.Blocker, p.K, p.ME, fmt.Sprintf("%.2f", p.Seconds))
	}
	return t.String()
}

// FormatSensitivityAL renders the AL-iterations sweep.
func FormatSensitivityAL(points []ALSensitivityPoint) string {
	t := &metrics.Table{Headers: []string{"Dataset", "Q", "AL iters", "found"}}
	for _, p := range points {
		t.Add(p.Dataset, p.Blocker, p.ALIters, p.Found)
	}
	return t.String()
}

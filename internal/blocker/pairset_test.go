package blocker

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestPairSetBasics(t *testing.T) {
	s := NewPairSet()
	if s.Len() != 0 || s.Contains(1, 2) {
		t.Fatal("new set not empty")
	}
	s.Add(1, 2)
	s.Add(1, 2)
	s.Add(3, 4)
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if !s.Contains(1, 2) || !s.Contains(3, 4) || s.Contains(2, 1) {
		t.Error("membership wrong")
	}
}

func TestPairSetNilSafety(t *testing.T) {
	var s *PairSet
	if s.Contains(0, 0) {
		t.Error("nil Contains should be false")
	}
	if s.Len() != 0 {
		t.Error("nil Len should be 0")
	}
	if s.SortedPairs() != nil {
		t.Error("nil SortedPairs should be nil")
	}
	s.ForEach(func(a, b int) { t.Error("nil ForEach should not call") })
}

func TestPairSetUnionAndForEach(t *testing.T) {
	s := NewPairSet()
	s.Add(0, 0)
	o := NewPairSet()
	o.Add(0, 0)
	o.Add(5, 6)
	s.Union(o)
	if s.Len() != 2 {
		t.Errorf("union Len = %d, want 2", s.Len())
	}
	s.Union(nil) // must not panic
	count := 0
	s.ForEach(func(a, b int) { count++ })
	if count != 2 {
		t.Errorf("ForEach visited %d, want 2", count)
	}
}

func TestPairSetSortedPairs(t *testing.T) {
	s := NewPairSet()
	s.Add(2, 1)
	s.Add(0, 9)
	s.Add(2, 0)
	got := s.SortedPairs()
	want := []Pair{{0, 9}, {2, 0}, {2, 1}}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("SortedPairs[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// Property: Add/Contains behave like a reference map implementation, and
// key packing never confuses distinct pairs (within int32 row ranges).
func TestPairSetMatchesReference(t *testing.T) {
	f := func(pairs [][2]uint16, probes [][2]uint16) bool {
		s := NewPairSet()
		ref := map[[2]int]bool{}
		for _, p := range pairs {
			a, b := int(p[0]), int(p[1])
			s.Add(a, b)
			ref[[2]int{a, b}] = true
		}
		if s.Len() != len(ref) {
			return false
		}
		for _, p := range probes {
			a, b := int(p[0]), int(p[1])
			if s.Contains(a, b) != ref[[2]int{a, b}] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// fuzzOps decodes a fuzzer's byte string into operations and pair ids;
// it reads zeros once the bytes run out.
type fuzzOps []byte

func (f *fuzzOps) byte() byte {
	if len(*f) == 0 {
		return 0
	}
	c := (*f)[0]
	*f = (*f)[1:]
	return c
}

func (f *fuzzOps) u32() uint32 {
	return uint32(f.byte()) | uint32(f.byte())<<8 | uint32(f.byte())<<16 | uint32(f.byte())<<24
}

// pair reads one pair: small ids that collide often, or any a up to
// 2^31−1 and any int32 b, negative ones included.
func (f *fuzzOps) pair() (a, b int) {
	m := f.byte()
	if m&1 == 0 {
		a = int(m>>1) & 31
	} else {
		a = int(f.u32() & math.MaxInt32)
	}
	if m&2 == 0 {
		b = int(m>>2)%16 - 8
	} else {
		b = int(int32(f.u32()))
	}
	return a, b
}

func comparePairs(x, y Pair) int {
	if c := cmp.Compare(x.A, y.A); c != 0 {
		return c
	}
	return cmp.Compare(x.B, y.B)
}

// FuzzPairSet runs an operation sequence on two sets and a map reference
// for each: Adds and Unions (self-unions included) interleaved with
// reads, so that every read re-seals a set that has grown since the last
// one. Every read must agree with the reference, iteration must be in
// ascending (A, B) order, and a sealed set's row index must never exceed
// the dense bound, however sparse the A ids: B ids may be negative and A
// ids reach 2^31-1 (DESIGN.md "Session preparation").
func FuzzPairSet(f *testing.F) {
	f.Add([]byte{0, 4, 0, 6, 3, 0, 4, 5, 6, 7})
	f.Add([]byte{0, 1, 0xff, 0xff, 0xff, 0x7f, 2, 0, 1, 0xff, 0xff, 0xff, 0x7f, 3, 0, 1, 7})
	f.Add([]byte{0, 3, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x81, 0x82, 7, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := fuzzOps(data)
		sets := [2]*PairSet{NewPairSet(), {}}
		refs := [2]map[Pair]bool{{}, {}}
		for n := 0; len(ops) > 0 && n < 4096; n++ {
			op := ops.byte()
			x := int(op>>7) & 1
			s, ref := sets[x], refs[x]
			switch op & 7 {
			case 0, 1, 2:
				a, b := ops.pair()
				s.Add(a, b)
				ref[Pair{a, b}] = true
			case 3:
				y := int(op>>6) & 1
				if s.Union(sets[y]) != s {
					t.Fatal("Union did not return its receiver")
				}
				for p := range refs[y] {
					ref[p] = true
				}
			case 4:
				a, b := ops.pair()
				if got := s.Contains(a, b); got != ref[Pair{a, b}] {
					t.Fatalf("set %d: Contains(%d, %d) = %v, want %v", x, a, b, got, !got)
				}
				if len(ref) <= 256 {
					for p := range ref {
						if !s.Contains(p.A, p.B) {
							t.Fatalf("set %d: Contains(%d, %d) = false for a member", x, p.A, p.B)
						}
					}
				}
			case 5:
				if s.Len() != len(ref) {
					t.Fatalf("set %d: Len = %d, want %d", x, s.Len(), len(ref))
				}
			case 6:
				var got []Pair
				s.ForEach(func(a, b int) { got = append(got, Pair{a, b}) })
				checkPairs(t, x, "ForEach", got, ref)
			case 7:
				checkPairs(t, x, "SortedPairs", s.SortedPairs(), ref)
			}
			if !s.dirty.Load() && s.rows != nil && len(s.rows) > 2*len(s.keys)+1026 {
				t.Fatalf("set %d: row index of %d offsets for %d pairs", x, len(s.rows), len(s.keys))
			}
		}
	})
}

func checkPairs(t *testing.T, set int, what string, got []Pair, ref map[Pair]bool) {
	t.Helper()
	want := make([]Pair, 0, len(ref))
	for p := range ref {
		want = append(want, p)
	}
	slices.SortFunc(want, comparePairs)
	if !slices.Equal(got, want) {
		t.Fatalf("set %d: %s = %v, want %v", set, what, got, want)
	}
}

func TestPairSetSparseIDsBuildNoRowIndex(t *testing.T) {
	s := NewPairSet()
	s.Add(math.MaxInt32, 1)
	s.Add(0, -1)
	if !s.Contains(math.MaxInt32, 1) || !s.Contains(0, -1) || s.Contains(1, 1) || s.Len() != 2 {
		t.Fatal("membership wrong on sparse ids")
	}
	if s.rows != nil {
		t.Fatalf("sparse set built a row index of %d offsets", len(s.rows))
	}
	if got := s.SortedPairs(); !slices.Equal(got, []Pair{{0, -1}, {math.MaxInt32, 1}}) {
		t.Errorf("SortedPairs = %v", got)
	}
}

// TestPairSetConcurrentReadsSeal has readers race to seal an unsealed
// set; run it under -race.
func TestPairSetConcurrentReadsSeal(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := NewPairSet()
		for i := 0; i < 500; i++ {
			s.Add(i%37, i)
		}
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < 500; i += 4 {
					if !s.Contains(i%37, i) || s.Contains(i%37, -i-1) {
						errs <- "Contains wrong"
						return
					}
				}
				if s.Len() != 500 {
					errs <- "Len wrong"
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}

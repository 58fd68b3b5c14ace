package main

import "testing"

// smallWorkload keeps generator tests fast; it uses the same generators
// as the real workloads at a coarser scale.
var smallWorkload = workload{name: "small", dataset: "StackOverflow", streamScale: 4096, serveScale: 4096}

func fingerprintOf(t *testing.T, w workload, seed uint64) uint64 {
	t.Helper()
	in, err := generate(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in.fingerprint(serveCallers, 5000)
}

// TestSeedPinsOpStream pins the op stream a seed yields by its hash: a
// change to any generator the benchmark draws from (internal/dataset,
// the serve mix) changes what the benchmark measures and must show up
// here.
func TestSeedPinsOpStream(t *testing.T) {
	const pinned uint64 = 0x70803c65dca7d733
	a := fingerprintOf(t, smallWorkload, 7)
	if b := fingerprintOf(t, smallWorkload, 7); a != b {
		t.Fatalf("seed 7 gave %016x then %016x", a, b)
	}
	if a != pinned {
		t.Errorf("seed 7 op stream hash = %#x, pinned %#x", a, pinned)
	}
	if c := fingerprintOf(t, smallWorkload, 8); c == a {
		t.Errorf("seeds 7 and 8 gave the same op stream %016x", a)
	}
}

func TestEveryWorkloadGenerates(t *testing.T) {
	if testing.Short() {
		t.Skip("generates full-size inputs")
	}
	for _, w := range workloads {
		in, err := generate(w, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if in.distinct == 0 || in.halfDeleted == 0 || len(in.preload) == 0 || len(in.degree) == 0 {
			t.Errorf("%s: empty inputs", w.name)
		}
	}
}

// TestMixGenShape checks the serve mix: 80% reads, deletes only of the
// caller's own inserts, and fresh insert ids that no other caller uses.
func TestMixGenShape(t *testing.T) {
	in, err := generate(smallWorkload, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[2]uint64]int)
	var reads, total int
	for caller := 0; caller < 2; caller++ {
		g := newMixGen(in, caller)
		live := make(map[[2]uint64]bool)
		for i := 0; i < 20000; i++ {
			op := g.next()
			total++
			key := [2]uint64{op.u, op.v}
			switch op.kind {
			case opInsert:
				if _, dup := seen[key]; dup {
					t.Fatalf("insert of %v repeats an earlier insert", key)
				}
				seen[key] = caller
				live[key] = true
			case opDelete:
				if !live[key] || seen[key] != caller {
					t.Fatalf("caller %d deletes %v it does not own", caller, key)
				}
				delete(live, key)
			default:
				reads++
			}
		}
	}
	if share := float64(reads) / float64(total); share < 0.78 || share > 0.82 {
		t.Errorf("read share %.3f, want about 0.80", share)
	}
}

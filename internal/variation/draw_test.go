package variation

import "testing"

// TestScratchMatchesNodeTree pins the shared-draw contract: the
// value-typed scratch path must reproduce the sampler's node tree draw
// for draw, at every level of the hierarchy: the root values match,
// and a node's own scratch derives the same subtree as the sampler's.
func TestScratchMatchesNodeTree(t *testing.T) {
	s := NewSampler(Nassif45nm(), PaperFactors(), 2006)
	sc := s.NewScratch()
	for id := 0; id < 25; id++ {
		root := s.Chip(id)
		rootD := sc.Chip(id)
		if root.Values != rootD.Values {
			t.Fatalf("chip %d: root values differ\nnode:  %v\ndraw:  %v", id, root.Values, rootD.Values)
		}
		nsc := root.NewScratch()
		for w := 0; w < 4; w++ {
			way, wayD := nsc.Way(&rootD, w), sc.Way(&rootD, w)
			if way.Values != wayD.Values {
				t.Fatalf("chip %d way %d: values differ", id, w)
			}
			blk, blkD := nsc.Block(&way, 3), sc.Block(&wayD, 3)
			if blk.Values != blkD.Values {
				t.Fatalf("chip %d way %d block: values differ", id, w)
			}
			row, rowD := nsc.Row(&blk, 9), sc.Row(&blkD, 9)
			if row.Values != rowD.Values {
				t.Fatalf("chip %d way %d row: values differ", id, w)
			}
			mm, mmD := nsc.Child(&blk, 1.0, 9000), sc.Child(&blkD, 1.0, 9000)
			if mm.Values != mmD.Values {
				t.Fatalf("chip %d way %d full-range child: values differ", id, w)
			}
		}
	}
}

// TestAsDrawBridges checks that a Node can enter the scratch path
// through AsDraw and keep producing identical subtrees.
func TestAsDrawBridges(t *testing.T) {
	s := NewSampler(Nassif45nm(), PaperFactors(), 7)
	n := s.Chip(3)
	d := n.AsDraw()
	if n.Values != d.Values {
		t.Fatal("AsDraw changed values")
	}
	nsc, sc := n.NewScratch(), s.NewScratch()
	want := sc.Chip(3)
	way, wantWay := nsc.Way(&d, 2), sc.Way(&want, 2)
	blk, wantBlk := nsc.Block(&way, 5), sc.Block(&wantWay, 5)
	row, wantRow := nsc.Row(&blk, 1), sc.Row(&wantBlk, 1)
	if way.Values != wantWay.Values || blk.Values != wantBlk.Values || row.Values != wantRow.Values {
		t.Fatal("subtree from AsDraw diverges from the sampler's subtree")
	}
}

// TestScratchZeroAlloc verifies drawing through a warm scratch never
// touches the heap.
func TestScratchZeroAlloc(t *testing.T) {
	s := NewSampler(Nassif45nm(), PaperFactors(), 2006)
	sc := s.NewScratch()
	allocs := testing.AllocsPerRun(100, func() {
		chip := sc.Chip(11)
		way := sc.Way(&chip, 3)
		blk := sc.Block(&way, 2)
		sc.Row(&blk, 4)
	})
	if allocs != 0 {
		t.Errorf("scratch draws allocate %.1f times per run, want 0", allocs)
	}
}

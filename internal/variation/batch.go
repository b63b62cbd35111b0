package variation

import "yieldcache/internal/stats"

// Batch is a structure-of-arrays set of draws: one flat column per
// variation source plus the per-lane stream seeds. It is the batched
// counterpart of Draw for the column-major measurement kernel — a
// worker samples the same region node of several chips into one Batch,
// then evaluates the batch with straight-line loops over the columns.
// Lane l of a Batch corresponds to Draw{Values: {Col[p][l]...},
// seed: Seeds[l]}; the scalar and batched forms are interchangeable
// bit for bit. Buffers are reused across Resize calls, so a warm Batch
// (or one Carved with enough lanes) costs no allocation.
type Batch struct {
	// Seeds holds the per-lane stream seeds (children are derived from
	// them exactly as Draw children are).
	Seeds []int64
	// Col holds one column per variation source: Col[p][l] is the value
	// of parameter p in lane l.
	Col [NumParams][]float64

	n int
}

// Len returns the number of lanes currently in the batch.
func (b *Batch) Len() int { return b.n }

// Resize sets the batch to n lanes, reusing buffer capacity. Lane
// contents are unspecified after a resize; callers fill every lane.
func (b *Batch) Resize(n int) {
	if cap(b.Seeds) < n {
		b.Seeds = make([]int64, n)
		for p := range b.Col {
			b.Col[p] = make([]float64, n)
		}
	} else {
		b.Seeds = b.Seeds[:n]
		for p := range b.Col {
			b.Col[p] = b.Col[p][:n]
		}
	}
	b.n = n
}

// Slab is flat backing storage from which Carve cuts the columns of
// many batches, so that a caller retaining thousands of batches pays a
// few allocations for all of them instead of several per batch.
type Slab struct {
	seeds []int64
	vals  []float64
}

// NewSlab returns a slab holding lanes batch lanes in total.
func NewSlab(lanes int) *Slab {
	return &Slab{seeds: make([]int64, lanes), vals: make([]float64, lanes*int(NumParams))}
}

// Carve backs a zero b with n lanes cut from the front of s, so that a
// later Resize to at most n lanes allocates nothing. Full-capacity slice
// expressions keep one batch's columns from bleeding into the next.
// It panics when s holds fewer than n lanes.
func (b *Batch) Carve(n int, s *Slab) {
	b.Seeds, s.seeds = s.seeds[:0:n], s.seeds[n:]
	for p := range b.Col {
		b.Col[p], s.vals = s.vals[:0:n], s.vals[n:]
	}
}

// SetLane overwrites lane l with the given draw.
func (b *Batch) SetLane(l int, d *Draw) {
	b.Seeds[l] = d.seed
	for p := range b.Col {
		b.Col[p][l] = d.Values[p]
	}
}

// ChipBatch fills dst with the root draws of the given chip ids, lane
// i holding chip ids[i]. Each lane is bit-identical to Scratch.Chip of
// the same id.
func (sc *Scratch) ChipBatch(ids []int, dst *Batch) {
	dst.Resize(len(ids))
	for l, id := range ids {
		dst.Seeds[l] = stats.MixSeed(sc.seed, int64(id)+1)
	}
	var sigma, bound [NumParams]float64
	for p := Param(0); p < NumParams; p++ {
		sigma[p] = sc.spec.Sigma(p)
		bound[p] = sc.spec.Bound(p)
		col := dst.Col[p]
		nom := sc.spec.Nominal[p]
		for l := range col {
			col[l] = nom
		}
	}
	sc.rng.TruncNormalColumns(dst.Seeds, dst.Col[:], sigma[:], bound[:])
}

// ChildrenBatch draws, for every parent lane, fanout correlated
// children with labels label0..label0+fanout-1, into dst in
// parent-major lane order (child j of parent lane l lands in lane
// l*fanout+j). Each child lane is bit-identical to Scratch.Child of
// the corresponding parent draw and label.
func (sc *Scratch) ChildrenBatch(parent *Batch, factor float64, label0 int64, fanout int, dst *Batch) {
	n := parent.n * fanout
	dst.Resize(n)
	for pl := 0; pl < parent.n; pl++ {
		base := pl * fanout
		ps := parent.Seeds[pl]
		for j := 0; j < fanout; j++ {
			dst.Seeds[base+j] = stats.MixSeed(ps, label0+int64(j))
		}
	}
	// The parent's value is the mean of every child draw; expand it
	// into the destination columns (TruncNormalColumns reads the mean
	// in place). A non-positive factor means a perfectly correlated
	// child: values copy through, only the seed advances.
	for p := range dst.Col {
		dcol, pcol := dst.Col[p], parent.Col[p]
		if fanout == 1 {
			copy(dcol, pcol[:parent.n])
			continue
		}
		for pl := 0; pl < parent.n; pl++ {
			v := pcol[pl]
			base := pl * fanout
			for j := 0; j < fanout; j++ {
				dcol[base+j] = v
			}
		}
	}
	if factor <= 0 {
		return
	}
	var sigma, bound [NumParams]float64
	for p := Param(0); p < NumParams; p++ {
		sigma[p] = factor * sc.spec.Sigma(p)
		bound[p] = factor * sc.spec.Bound(p)
	}
	sc.rng.TruncNormalColumns(dst.Seeds, dst.Col[:], sigma[:], bound[:])
}

// WayBatch mirrors Scratch.Way for batches: one lane per parent lane,
// drawn at way i's mesh correlation factor.
func (sc *Scratch) WayBatch(parent *Batch, i int, dst *Batch) {
	sc.ChildrenBatch(parent, sc.fact.WayFactor(i), int64(1000+i), 1, dst)
}

// BlocksBatch mirrors Scratch.Block for batches: fanout consecutive
// block labels label0..label0+fanout-1 per parent lane.
func (sc *Scratch) BlocksBatch(parent *Batch, label0 int64, fanout int, dst *Batch) {
	sc.ChildrenBatch(parent, sc.fact.Block, 2000+label0, fanout, dst)
}

// RowsBatch mirrors Scratch.Row for batches: one row child per parent
// lane at the given label.
func (sc *Scratch) RowsBatch(parent *Batch, label int64, dst *Batch) {
	sc.ChildrenBatch(parent, sc.fact.Row, 3000+label, 1, dst)
}

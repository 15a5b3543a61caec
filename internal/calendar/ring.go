package calendar

// chunkSlots is how many consecutive ring positions share one chunk — a
// constant near √Slots for the shipped 672-slot horizon, not a knob.
const chunkSlots = 32

// ring is the copy-on-write slot ring both backends keep their per-slot
// index in (T is *dtree.Tree or a sorted []period.Period), stored as a
// two-level table so that publishing a view costs what was written since the
// previous view instead of O(Slots).
//
// Copy-on-write contract, at two granularities:
//
//   - Slot values. shared[i] says a published view references the value at
//     position i; owned clones such a value before handing it out for
//     mutation, so a value a view can reach is frozen from the moment the
//     view exists.
//   - Chunks. The writer's chunks are private to it. publish copies every
//     chunk written since the last publish (dirty) into the published table
//     and marks that chunk's slots shared; a clean chunk is carried over by
//     pointer. Its slots are shared already: they were marked when the chunk
//     was last copied, and only owned/set — which set dirty — clear the mark.
//     Equivalently: !shared[i] implies dirty[i/chunkSlots].
//
// Published tables and the chunks they point to are never written again, so
// any number of readers may hold them without synchronization.
type ring[T any] struct {
	n      int
	clone  func(T) T // deep copy of one slot value; see owned
	chunks [][]T     // writer-private; position i lives at chunks[i/chunkSlots][i%chunkSlots]
	shared []bool    // per position
	dirty  []bool    // per chunk
	pub    ringView[T]
}

// ringView is a published, immutable table of the ring's chunks.
type ringView[T any] [][]T

func (v ringView[T]) at(i int64) T { return v[i/chunkSlots][i%chunkSlots] }

func newRing[T any](n int, clone func(T) T) *ring[T] {
	nc := (n + chunkSlots - 1) / chunkSlots
	r := &ring[T]{n: n, clone: clone, chunks: make([][]T, nc), shared: make([]bool, n), dirty: make([]bool, nc)}
	for c := range r.chunks {
		r.chunks[c] = make([]T, min(chunkSlots, n-c*chunkSlots))
		r.dirty[c] = true // never published
	}
	r.pub = make(ringView[T], nc)
	return r
}

// at returns the value at the ring position of absolute slot abs, for reading.
func (r *ring[T]) at(abs int64) T {
	i := abs % int64(r.n)
	return r.chunks[i/chunkSlots][i%chunkSlots]
}

// owned returns the value at the ring position of abs for mutation, cloning
// it first if a published view still references it. Mutate slot values only
// through owned and set.
func (r *ring[T]) owned(abs int64) T {
	i := abs % int64(r.n)
	ch := r.chunks[i/chunkSlots]
	if r.shared[i] {
		ch[i%chunkSlots] = r.clone(ch[i%chunkSlots])
		r.shared[i] = false
	}
	r.dirty[i/chunkSlots] = true
	return ch[i%chunkSlots]
}

// set installs v, which no view references, at the ring position of abs: a
// fresh value on slot rotation, or the new header of an owned slice. The
// previous value may live on inside a published view.
func (r *ring[T]) set(abs int64, v T) {
	i := abs % int64(r.n)
	r.chunks[i/chunkSlots][i%chunkSlots] = v
	r.shared[i] = false
	r.dirty[i/chunkSlots] = true
}

// publish returns the ring's current contents as an immutable table. With no
// chunk written since the last publish that is the previous table itself;
// otherwise the outer table and the dirty chunks are copied.
func (r *ring[T]) publish() ringView[T] {
	copied := false
	for c, d := range r.dirty {
		if !d {
			continue
		}
		if !copied {
			r.pub = append(ringView[T](nil), r.pub...)
			copied = true
		}
		r.pub[c] = append([]T(nil), r.chunks[c]...)
		lo := c * chunkSlots
		for k := range r.chunks[c] {
			r.shared[lo+k] = true
		}
		r.dirty[c] = false
	}
	return r.pub
}

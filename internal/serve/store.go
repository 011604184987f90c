package serve

// store is the daemon's content-addressed job and result registry.
// Because job IDs are hashes of what the job computes (scale + bench
// memoisation key), the map *is* the result cache: a duplicate
// submission resolves to the live (or completed) job for that content,
// and its retained result JSON is served without re-simulation.
//
// Concurrency: store has no lock of its own — every method must be
// called with the owning Manager's mu held. That keeps
// lookup-then-enqueue atomic in the submission path without a second
// lock order to reason about.
type store struct {
	jobs  map[string]*Job
	order []string // insertion order, for stable listings
}

func newStore() *store {
	return &store{jobs: make(map[string]*Job)}
}

// get returns the job for a content address, if any.
func (st *store) get(id string) (*Job, bool) {
	j, ok := st.jobs[id]
	return j, ok
}

// put installs (or replaces) the job under its content address.
// Replacement happens when a previous generation of the same content
// failed or was cancelled: the old job object stays valid for clients
// still holding it, but the address now serves the fresh generation.
func (st *store) put(j *Job) {
	if _, existed := st.jobs[j.ID]; !existed {
		st.order = append(st.order, j.ID)
	}
	st.jobs[j.ID] = j
}

// list returns every current-generation job in insertion order.
func (st *store) list() []*Job {
	out := make([]*Job, 0, len(st.jobs))
	for _, id := range st.order {
		if j, ok := st.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

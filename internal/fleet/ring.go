// Package fleet is the multi-node serving tier of the Condor backend: an
// HTTP router that consistent-hashes inference requests by model across a
// health-checked membership of condor-serve nodes, with per-node circuit
// breaking, retry-with-backoff across replicas, SLO-aware admission
// (priority classes, shed low-priority load before deadline misses), and an
// autoscaler that turns scraped node metrics into simulated F1 capacity
// decisions through the internal/aws cost/spin-up model.
//
// The package splits into:
//
//   - Ring: a consistent hash ring with virtual nodes, so membership churn
//     moves a bounded fraction of the key space;
//   - Breaker: a per-node circuit breaker (closed → open → half-open);
//   - Membership: registration plus a /readyz health-probe loop that evicts
//     unready nodes from the ring and re-admits them on recovery;
//   - Router: the HTTP front door (/infer, /register, /deregister, /nodes,
//     /healthz, /statsz, /metricsz);
//   - Autoscaler: a control loop over scraped /statsz queue-depth,
//     utilization and latency figures driving a ScaleTarget.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// Ring is a consistent hash ring with virtual nodes. Each member is hashed
// at Vnodes points; a key is owned by the first vnode clockwise from the
// key's hash. With V vnodes per member, adding or removing one member of N
// moves only ~1/N of the key space — the bounded key movement that keeps a
// node join from re-routing the whole fleet's traffic.
//
// All methods are safe for concurrent use.
type Ring struct {
	vnodes int

	mu     sync.RWMutex
	hashes []uint64          // sorted vnode positions
	owner  map[uint64]string // vnode position → member
	nodes  map[string]bool
}

// NewRing creates an empty ring with the given virtual-node count per
// member (defaults to 64 when non-positive).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &Ring{
		vnodes: vnodes,
		owner:  make(map[uint64]string),
		nodes:  make(map[string]bool),
	}
}

// hash64 places a key or a vnode label on the ring: FNV-1a, then the
// splitmix64 finalizer. Raw FNV-1a leaves labels that differ only in their
// last characters ("m-0"…"m-9", "host:port#v") within a multiply of each
// other, i.e. in one ring neighbourhood; the avalanche step spreads them
// over the whole 64-bit circle.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // fnv never fails
	z := h.Sum64()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Add inserts a member; adding an existing member is a no-op.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for v := 0; v < r.vnodes; v++ {
		h := hash64(fmt.Sprintf("%s#%d", node, v))
		// A position collision between distinct members would silently drop
		// vnodes; nudge until free (deterministic, so Add order still
		// yields one canonical ring).
		for {
			if _, taken := r.owner[h]; !taken {
				break
			}
			h++
		}
		r.owner[h] = node
		r.hashes = append(r.hashes, h)
	}
	sort.Slice(r.hashes, func(i, j int) bool { return r.hashes[i] < r.hashes[j] })
}

// Remove deletes a member and its vnodes; unknown members are a no-op.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.hashes[:0]
	for _, h := range r.hashes {
		if r.owner[h] == node {
			delete(r.owner, h)
			continue
		}
		kept = append(kept, h)
	}
	r.hashes = kept
}

// Has reports membership.
func (r *Ring) Has(node string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.nodes[node]
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Members returns the member set in sorted order.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the member owning the key, or "" on an empty ring.
func (r *Ring) Lookup(key string) string {
	owners := r.LookupN(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// LookupN walks the ring clockwise from the key's position and returns up
// to n distinct members in preference order — the key's replica set. The
// first entry is the primary; a router that fails over in this order keeps
// retries deterministic per key.
func (r *Ring) LookupN(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.hashes) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hash64(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.hashes) && len(out) < n; i++ {
		owner := r.owner[r.hashes[(start+i)%len(r.hashes)]]
		if !seen[owner] {
			seen[owner] = true
			out = append(out, owner)
		}
	}
	return out
}

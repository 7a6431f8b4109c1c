package jobs

import (
	"fmt"
	"strings"
)

// Registry holds the measurement battery: every registered Job by name,
// in registration order, resolvable case-insensitively for -run and
// enumerable for -list.
type Registry struct {
	order []string
	byKey map[string]Job
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]Job)}
}

// Register adds j under its name. Registering a second job under the
// same (case-insensitive) name is a programming error and fails.
func (r *Registry) Register(j Job) error {
	key := strings.ToLower(j.Name())
	if key == "" {
		return fmt.Errorf("jobs: register a job without a name")
	}
	if _, dup := r.byKey[key]; dup {
		return fmt.Errorf("jobs: duplicate job %q", j.Name())
	}
	r.byKey[key] = j
	r.order = append(r.order, j.Name())
	return nil
}

// Lookup resolves a job name case-insensitively. An unknown name errors
// with the nearest registered name as a suggestion.
func (r *Registry) Lookup(name string) (Job, error) {
	if j, ok := r.byKey[strings.ToLower(name)]; ok {
		return j, nil
	}
	if near := r.nearest(name); near != "" {
		return nil, fmt.Errorf("unknown experiment %q (did you mean %q?)", name, near)
	}
	return nil, fmt.Errorf("unknown experiment %q", name)
}

// Names returns the registered job names in registration order.
func (r *Registry) Names() []string {
	return append([]string(nil), r.order...)
}

// Jobs returns the registered jobs in registration order.
func (r *Registry) Jobs() []Job {
	out := make([]Job, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.byKey[strings.ToLower(name)])
	}
	return out
}

// nearest returns the registered name with the smallest edit distance
// to name among those plausibly close — within half the longer of the
// two names, floored at 2, so a shortened name ("cores" for "coreness")
// is suggested as well as a typo — or "" when there is none.
func (r *Registry) nearest(name string) string {
	lname := strings.ToLower(name)
	best, bestDist := "", -1
	for _, candidate := range r.order {
		d := editDistance(lname, strings.ToLower(candidate))
		if d > max(2, max(len(lname), len(candidate))/2) {
			continue
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = candidate, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between a and b, two rows of
// the classic dynamic program.
func editDistance(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// min3 returns the smallest of its three arguments.
func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

package fragio

import "sync"

// singleflight deduplicates concurrent executions of keyed work. It is
// a minimal version of the well-known pattern: the first caller for a
// key runs the function; callers arriving before it finishes wait for
// and share the result. Results are not cached — once the flight lands,
// the next caller starts a fresh one (the layers above have their own
// caches for results worth keeping).
type singleflight[K comparable] struct {
	mu      sync.Mutex
	m       map[K]*flight
	onShare func() // called as a caller joins an in-flight execution
}

type flight struct {
	done chan struct{}
	val  any
	err  error
}

func (g *singleflight[K]) init(onShare func()) {
	g.m = make(map[K]*flight)
	g.onShare = onShare
}

// do executes fn for key, deduplicating against in-flight executions.
// shared reports whether this caller received another caller's result.
func (g *singleflight[K]) do(key K, fn func() (any, error)) (v any, shared bool, err error) {
	g.mu.Lock()
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		g.onShare()
		<-f.done
		return f.val, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	f.val, f.err = fn()
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

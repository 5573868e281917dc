package frontier

import (
	"container/heap"
	"sort"
	"sync"
)

// CollUrls is the revisit priority queue of Figure 12 as one heap: the
// reference order Sharded must reproduce (TestShardedMatchesCollUrls),
// kept only as a test oracle. Safe for concurrent use.
type CollUrls struct {
	mu    sync.Mutex
	h     entryHeap
	byURL map[string]*Entry
}

// NewCollUrls returns an empty queue.
func NewCollUrls() *CollUrls {
	return &CollUrls{byURL: make(map[string]*Entry)}
}

// Len returns the queue size.
func (c *CollUrls) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.h)
}

// Contains reports whether url is queued.
func (c *CollUrls) Contains(url string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byURL[url]
	return ok
}

// Push inserts or reschedules url. "The position of the crawled URL
// within CollUrls is determined by the page's estimated change frequency"
// — callers encode that in due.
func (c *CollUrls) Push(url string, due, priority float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byURL[url]; ok {
		e.Due = due
		e.Priority = priority
		heap.Fix(&c.h, e.index)
		return
	}
	e := &Entry{URL: url, Due: due, Priority: priority}
	heap.Push(&c.h, e)
	c.byURL[url] = e
}

// Pop removes and returns the entry with the earliest due time.
func (c *CollUrls) Pop() (Entry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.h) == 0 {
		return Entry{}, ErrEmpty
	}
	e := heap.Pop(&c.h).(*Entry)
	delete(c.byURL, e.URL)
	return *e, nil
}

// PopDue removes and returns the head entry only if it is due at or
// before now; ok is false when the queue is empty or the head is in the
// future.
func (c *CollUrls) PopDue(now float64) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.h) == 0 || c.h[0].Due > now {
		return Entry{}, false
	}
	e := heap.Pop(&c.h).(*Entry)
	delete(c.byURL, e.URL)
	return *e, true
}

// Peek returns the head entry without removing it.
func (c *CollUrls) Peek() (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.h) == 0 {
		return Entry{}, false
	}
	return *c.h[0], true
}

// Remove deletes url from the queue (the RankingModule discards a page).
// It reports whether the URL was present.
func (c *CollUrls) Remove(url string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byURL[url]
	if !ok {
		return false
	}
	heap.Remove(&c.h, e.index)
	delete(c.byURL, url)
	return true
}

// URLs returns all queued URLs (unordered snapshot).
func (c *CollUrls) URLs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.byURL))
	for u := range c.byURL {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

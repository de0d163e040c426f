package trace

// SkipScan discards a run of upcoming events without materializing
// them, while still honoring the one boundary a scheduler cares about:
// syscalls. It consumes up to max events and stops early — after
// consuming the syscall event itself — when an event carries the
// syscall flag, so a fast-forwarding scheduler preserves the exact
// context-switch points of a full replay.
//
// It returns the number of events consumed and whether the last one was
// a syscall. n == 0 with max > 0 means the stream is exhausted.
//
// The scan uses the recording's skip index: the syscall event list
// bounds how far the scan may run, whole skipIndexBlock strides are
// jumped via the per-block word offsets, and only the sub-block residue
// is walked word by word (tag-length arithmetic, no decode). Fast-forwarding a span therefore costs
// O(log syscalls) plus at most one block of word hops, which is what
// makes the skip phase of sampled simulation nearly free.
func (c *Cursor) SkipScan(max int) (int, bool) {
	if max <= 0 || c.wEv >= c.r.n {
		return 0, false
	}
	// Resolve where this scan must stop: after the budget, at stream
	// end, or just past the next syscall, whichever is first.
	target := c.wEv + min(max, c.r.n-c.wEv)
	syscall := false
	if s := c.r.nextSyscall(c.wEv); s >= 0 && s < target {
		target = s + 1 // consume the syscall event itself
		syscall = true
	}
	// Jump whole indexed blocks, then walk the residue by tag length.
	// Everything from the pre-jump position through target is consumed,
	// so count n from the position before the jump.
	n := target - c.wEv
	if jb := target / skipIndexBlock; jb*skipIndexBlock > c.wEv && jb < len(c.r.blockWord) {
		c.w = c.r.blockWord[jb]
		c.wEv = jb * skipIndexBlock
	}
	words := c.r.words
	w := c.w
	for e := c.wEv; e < target; e++ {
		w += int(words[w]&3) + 1 // tag encodes length-1
	}
	c.w, c.wEv = w, target
	return n, syscall
}

// nextSyscall returns the first syscall event index at or after from,
// or -1 if there is none.
func (r *Recorded) nextSyscall(from int) int {
	s := r.sysEv
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < from {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(s) {
		return -1
	}
	return s[lo]
}

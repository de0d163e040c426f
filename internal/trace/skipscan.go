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
// The scan goes a chunk at a time. Each chunk's syscall list bounds how
// far the scan may run in it; a scan that consumes the rest of a chunk
// jumps to its end, and only a stop inside a chunk walks words (by tag
// length, no decode), at most one chunk of them. Fast-forwarding a span
// therefore costs a few operations per chunk, which is what makes the
// skip phase of sampled simulation nearly free.
func (c *Cursor) SkipScan(max int) (int, bool) {
	n := 0
	for n < max && (c.w < len(c.words) || c.advance()) {
		// Resolve where the scan stops in this chunk: after the budget,
		// at the chunk's end, or just past its next syscall, whichever
		// is first.
		ch := c.ch
		k := min(max-n, ch.end()-c.ev)
		syscall := false
		if s := ch.nextSyscall(c.ev); s >= 0 && s-c.ev < k {
			k, syscall = s-c.ev+1, true // consume the syscall event itself
		}
		if c.ev+k == ch.end() {
			c.w = len(c.words)
		} else {
			words, w := c.words, c.w
			for i := 0; i < k; i++ {
				w += int(words[w]&TagMask) + 1 // the tag is the event's length - 1
			}
			c.w = w
		}
		c.ev += k
		n += k
		if syscall {
			return n, true
		}
	}
	return n, false
}

package trace

// Sampling for long tapes, in the style of the era's trace-reduction
// techniques: keeping periodic windows.

// Window samples the stream periodically: from every `period` events it
// yields the first `keep`. keep >= period yields everything.
func Window(s Stream, keep, period int) Stream {
	if period <= 0 || keep >= period {
		return s
	}
	pos := 0
	return FuncStream(func(ev *Event) bool {
		for {
			if !s.Next(ev) {
				return false
			}
			inWindow := pos < keep
			pos++
			if pos == period {
				pos = 0
			}
			if inWindow {
				return true
			}
		}
	})
}

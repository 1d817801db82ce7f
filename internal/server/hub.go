package server

import "sync"

// hub is the per-study result log and broadcast point: the study's
// lease ledger's fold appends each result line as it streams out, in
// point-index order, and any number of HTTP subscribers replay the log from the
// start and then follow the live tail. Appends and finish wake waiting
// subscribers by closing the current wake channel — the standard
// broadcast-by-channel-replacement pattern, so a slow client never
// blocks the producer or other subscribers.
type hub struct {
	mu     sync.Mutex
	lines  [][]byte // one result per point: its JSON and a newline, never modified
	closed bool
	errMsg string
	wake   chan struct{}
}

func newHub() *hub { return &hub{wake: make(chan struct{})} }

// append adds one result line — its JSON and a newline, which the hub
// keeps and nobody modifies — and wakes subscribers.
func (h *hub) append(line []byte) {
	h.mu.Lock()
	h.lines = append(h.lines, line)
	close(h.wake)
	h.wake = make(chan struct{})
	h.mu.Unlock()
}

// finish marks the stream complete (errMsg empty on success) and wakes
// subscribers one last time. Idempotent: only the first call records
// the error.
func (h *hub) finish(errMsg string) {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		h.errMsg = errMsg
		close(h.wake)
		h.wake = make(chan struct{})
	}
	h.mu.Unlock()
}

// snapshot returns the lines at and after index from, whether the
// stream has ended (and with what error), and a channel that is closed
// on the next append or finish — the subscriber's wait handle. The
// returned slice aliases the log; subscribers must not modify lines.
func (h *hub) snapshot(from int) (lines [][]byte, done bool, errMsg string, wait <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if from < len(h.lines) {
		lines = h.lines[from:]
	}
	return lines, h.closed, h.errMsg, h.wake
}

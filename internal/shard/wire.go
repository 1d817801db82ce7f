package shard

// The JSON bodies of the lease protocol ctsand serves and `ctsan worker`
// speaks, declared once so the two sides cannot drift. The lease
// endpoint always answers 200 with one of three shapes: a LeaseGrant,
// {"done":true}, or {"retry_ms":N}.

// LeaseGrant is a granted lease: the half-open index range to execute,
// and how long the holder has before the range may be granted again.
type LeaseGrant struct {
	Lease    string `json:"lease"`
	Study    string `json:"study"`
	Start    int    `json:"start"`
	End      int    `json:"end"`
	Points   int    `json:"points"`
	TTLMS    int64  `json:"ttl_ms"`
	Deadline string `json:"deadline"`
}

// LeaseReply is the non-grant lease response: done means the study needs
// no more work (finished, failed, or canceled — the worker moves on),
// retry_ms means all remaining work is leased out (or the study has not
// started), come back later.
type LeaseReply struct {
	Done    bool  `json:"done,omitempty"`
	RetryMS int64 `json:"retry_ms,omitempty"`
}

// LeaseResponse is what a worker decodes a lease endpoint body into:
// whichever of the three shapes arrived (a grant has Lease non-empty).
type LeaseResponse struct {
	LeaseGrant
	LeaseReply
}

// CompleteReply reports what a record upload achieved.
type CompleteReply struct {
	Accepted  int  `json:"accepted"`
	Rejected  int  `json:"rejected"`
	Duplicate int  `json:"duplicate"`
	Done      bool `json:"done"`
}

package mis

import "repro/internal/core"

// ScanProgress reports how far the current physical scan has advanced: the
// vertex records delivered so far in the current physical scan (Records)
// against the number a complete scan delivers (Total, the file's vertex
// count). It is delivered through the OnProgress solver option after every
// decoded batch of every sequential pass a run performs — for a multi-minute
// scan over a billion-edge file, that is a steady heartbeat a caller can
// surface as a progress bar (see Percent) or use to decide to cancel.
type ScanProgress = core.ScanProgress

// RoundEvent reports one completed swap round, delivered through the
// OnRound solver option: the 1-based round number, the net change in
// independent-set size, the set size after the round, and the I/O the round
// performed. With cross-round pass fusion a steady-state round shows one
// physical scan plus carried logical scans.
type RoundEvent = core.RoundEvent

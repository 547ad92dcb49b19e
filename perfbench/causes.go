package main

// Abort causes, classified from sched.AbortError.Reason. The reasons are
// free-form strings in the program; a reason this table does not know
// lands in causeOther, and the benchmark's own tests fail on any such
// reason, so a renamed reason cannot drop silently out of the mix.
const (
	causeReadRejected = iota
	causeWriteRejected
	causeReadAfterUncommittedWriter
	causeWWGuard
	causeCommitValidation
	causeNoLiveIncarnation
	causeOther
	numCauses
)

var causeNames = [numCauses]string{
	"read_rejected",
	"write_rejected",
	"read_after_uncommitted_writer",
	"ww_guard",
	"commit_validation",
	"no_live_incarnation",
	"other",
}

var causeOfReason = map[string]int{
	"read rejected":                           causeReadRejected,
	"write rejected":                          causeWriteRejected,
	"read ordered after uncommitted writer":   causeReadAfterUncommittedWriter,
	"write conflicts with uncommitted writer": causeWWGuard,
	"commit-time write validation failed":     causeCommitValidation,
	"no live incarnation":                     causeNoLiveIncarnation,
}

func classifyAbort(reason string) int {
	if c, ok := causeOfReason[reason]; ok {
		return c
	}
	return causeOther
}

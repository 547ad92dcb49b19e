package main

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/classify"
	"repro/internal/history"
	"repro/internal/oplog"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The output checks run after the timed window, off the timed path. A
// failed check fails the run.

// failures collects check failures.
type failures []string

func (f *failures) addf(format string, args ...any) {
	*f = append(*f, fmt.Sprintf(format, args...))
}

// itemIndex recovers the item number from a workload.ItemName.
func itemIndex(name string) int {
	i, err := strconv.Atoi(name[1:])
	if err != nil {
		panic("perfbench: unexpected item name " + name)
	}
	return i
}

// writeSet returns the distinct items the spec of txn id writes.
func (s *system) writeSet(id int) []int {
	var out []int
	for _, op := range s.spec(id).Ops {
		if op.Kind != oplog.Write {
			continue
		}
		x := itemIndex(op.Item)
		dup := false
		for _, y := range out {
			dup = dup || y == x
		}
		if !dup {
			out = append(out, x)
		}
	}
	return out
}

// checkRun checks the store against every txn with an id up to lastID
// run since before was taken (right after set-up):
//   - accounting: every result is exactly one of committed, gave-up,
//     shed or deadline-miss;
//   - every txn reported committed was committed by the scheduler, and
//     every other txn the scheduler committed is a deadline miss whose
//     abandoned attempt committed after the deadline (a late commit,
//     counted and returned);
//   - the store version advanced by exactly the number of commits (every
//     commit, read-only included, publishes one batch);
//   - each item's version advanced by exactly the number of committed
//     txns that write it;
//   - each item holds the id of a committed txn that writes it (every
//     write stores its writer's id), or its preload value if none did;
//   - with a WAL, every reported commit was acked durable.
func checkRun(s *system, all *tally, before storage.State, lastID int) (f failures, late int) {
	kinds := all.kinds
	if got := kinds[kindCommitted] + kinds[kindGaveUp] + kinds[kindShed] + kinds[kindDeadline]; got != all.offered {
		f.addf("accounting: committed %d + gave-up %d + shed %d + deadline-miss %d = %d, offered %d",
			kinds[kindCommitted], kinds[kindGaveUp], kinds[kindShed], kinds[kindDeadline], got, all.offered)
	}
	reported := make([]bool, lastID+1)
	for _, id := range all.ids {
		reported[id] = true
		if !s.witness.committed(int(id)) {
			f.addf("txn %d reported committed, but the scheduler never committed it", id)
		}
	}
	missed := make([]bool, lastID+1)
	for _, id := range all.missed {
		missed[id] = true
	}
	writes := make([]int64, s.def.Items)
	var commits int64
	for id := 1; id <= lastID; id++ {
		if !s.witness.committed(id) {
			continue
		}
		commits++
		for _, x := range s.writeSet(id) {
			writes[x]++
		}
		switch {
		case reported[id]:
		case missed[id]:
			late++
		default:
			f.addf("txn %d committed without a committed or deadline-exceeded result", id)
		}
	}
	after := s.store.State()
	if d := after.Version - before.Version; d != commits {
		f.addf("store version advanced by %d, committed txns %d (%d reported, %d late)", d, commits, all.committed(), late)
	}
	badVers, badVals := 0, 0
	for x := 0; x < s.def.Items; x++ {
		name := workload.ItemName(x)
		if d := after.ItemVers[name] - before.ItemVers[name]; d != writes[x] {
			if badVers < 3 {
				f.addf("item %s: version advanced by %d, committed writers %d", name, d, writes[x])
			}
			badVers++
		}
		v := after.Data[name]
		ok := v == preloadValue(x) && writes[x] == 0
		if v > 0 && v <= int64(lastID) && s.witness.committed(int(v)) {
			for _, y := range s.writeSet(int(v)) {
				ok = ok || y == x
			}
		}
		if !ok {
			if badVals < 3 {
				f.addf("item %s holds %d: not its preload value nor a committed writer's id", name, v)
			}
			badVals++
		}
	}
	if badVers > 0 || badVals > 0 {
		f.addf("%d items with wrong versions, %d with wrong values", badVers, badVals)
	}
	if s.wal != nil && all.nonDurable > 0 {
		f.addf("%d commits not acked durable", all.nonDurable)
	}
	return f, late
}

// checkRecovery closes the WAL and checks that recovering its directory
// reproduces the store exactly. Every commit was acked durable (see
// checkRun) and the store holds every commit, so equality also means
// the log holds every acked txn.
func checkRecovery(s *system) failures {
	var f failures
	if err := s.wal.Close(); err != nil {
		f.addf("closing WAL: %v", err)
		return f
	}
	s.wal = nil
	rec, err := wal.Recover(s.walFS, walDir)
	if err != nil {
		f.addf("recovering WAL: %v", err)
		return f
	}
	want := s.store.State()
	if rec.Store.Version != want.Version {
		f.addf("recovered version %d, store version %d", rec.Store.Version, want.Version)
	}
	diff := func(what string, got, want map[string]int64) {
		bad := 0
		for k, v := range want {
			if got[k] != v {
				bad++
			}
		}
		if bad > 0 || len(got) != len(want) {
			f.addf("recovered %s: %d of %d items differ (%d recovered)", what, bad, len(want), len(got))
		}
	}
	diff("data", rec.Store.Data, want.Data)
	diff("item versions", rec.Store.ItemVers, want.ItemVers)
	return f
}

// verifyTxns bounds the serializability pass: the committed log's
// dependency graph is built pairwise, so its cost grows with the square
// of the log length.
const verifyTxns = 1000

// verifyPass runs verifyTxns more txns of the workload under a
// history recorder and checks the committed log: it must be DSR, hold
// exactly the txns the scheduler committed (a superset of those the
// runtime reported committed), and each item it writes must hold the id
// of its last writer in the log.
func verifyPass(r *runner) (tally, failures) {
	var f failures
	rec := history.Wrap(r.sys.rt.Sched)
	rt := *r.plain
	rt.Sched = rec
	vr := &runner{sys: r.sys, plain: &rt}
	first := int(r.nextID.Load()) + 1
	vr.nextID.Store(r.nextID.Load())
	var w window
	if r.sys.def.Open {
		vr.open(time.Duration(float64(verifyTxns)/r.sys.def.Rate*float64(time.Second)), false, &w)
	} else {
		vr.closedN(verifyTxns, &w)
	}
	r.nextID.Store(vr.nextID.Load())
	waitStrays(r.sys.def)
	t := w.all()

	log, err := dropOwnReads(rec.CommittedLog(), r.sys)
	if err != nil {
		f.addf("verification pass: %v", err)
	}
	if !classify.DSR(log) {
		f.addf("verification pass: committed log of %d ops is not DSR", len(log.Ops))
	}
	inLog := map[int]bool{}
	last := map[string]int{}
	for _, op := range log.Ops {
		inLog[op.Txn] = true
		if op.Kind == oplog.Write {
			for _, item := range op.Items {
				last[item] = op.Txn
			}
		}
	}
	witnessed := 0
	for id := first; id <= int(vr.nextID.Load()); id++ {
		if s := r.sys.witness; s.committed(id) {
			witnessed++
			if !inLog[id] {
				f.addf("verification pass: txn %d committed but missing from the log", id)
			}
		}
	}
	if len(inLog) != witnessed {
		f.addf("verification pass: %d txns in the committed log, %d committed", len(inLog), witnessed)
	}
	bad := 0
	for item, id := range last {
		if v := r.sys.store.Get(item); v != int64(id) {
			if bad < 3 {
				f.addf("verification pass: item %s holds %d, last writer in the log is %d", item, v, id)
			}
			bad++
		}
	}
	return t, f
}

// dropOwnReads removes from a recorded log the reads a txn served from
// its own write buffer: the adapters answer a read of an item the txn
// already wrote with the buffered value, without a protocol step, but
// history.Recorder records it like any read of committed state. Such a
// read orders the txn against nobody, and keeping it in the log shows a
// false cycle whenever another txn's write of the item commits between
// the read and the reader's commit. A txn's recorded reads follow its
// spec's reads in order; a late commit's reads are missing from the log
// (the recorder drops them when the runtime aborts the abandoned
// incarnation), which leaves fewer recorded reads than spec reads.
func dropOwnReads(log *oplog.Log, s *system) (*oplog.Log, error) {
	type read struct {
		item string
		own  bool
	}
	specReads := map[int][]read{}
	next := map[int]int{}
	var out []oplog.Op
	for _, op := range log.Ops {
		if op.Kind != oplog.Read {
			out = append(out, op)
			continue
		}
		reads, ok := specReads[op.Txn]
		if !ok {
			written := map[string]bool{}
			for _, sop := range s.spec(op.Txn).Ops {
				if sop.Kind == oplog.Write {
					written[sop.Item] = true
				} else {
					reads = append(reads, read{sop.Item, written[sop.Item]})
				}
			}
			specReads[op.Txn] = reads
		}
		k := next[op.Txn]
		next[op.Txn]++
		if k >= len(reads) || len(op.Items) != 1 || op.Items[0] != reads[k].item {
			return log, fmt.Errorf("txn %d: recorded read %v does not match its spec", op.Txn, op)
		}
		if !reads[k].own {
			out = append(out, op)
		}
	}
	return oplog.NewLog(out...), nil
}

// waitStrays gives attempts the runtime abandoned at a deadline time to
// drain: they keep running against the scheduler after ExecCtx returned.
func waitStrays(def workloadDef) {
	if def.Deadline > 0 {
		time.Sleep(2 * def.Deadline)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// The adaptation phase posts feedback in rounds of roundSize accepted
// records. crnserve runs with -feedback-min-batch roundSize, so the record
// that completes a round is the one that makes a retrain due, and each
// round waits for the previous cycle to end: every run drains the same
// number of records per cycle. The last round holds half as many and is
// left un-retrained, so crash recovery has a WAL tail to replay.
const (
	roundSize       = 192
	retrainedRounds = 5
	lastRound       = roundSize / 2
	cycleTimeout    = 60 * time.Second
)

// feedbackNeeded is how many distinct records the writer may need: the
// accepted ones plus headroom for records crnserve already pools.
const feedbackNeeded = (retrainedRounds*roundSize + lastRound) * 5 / 4

// feedbackResult is what the feedback writer measured.
type feedbackResult struct {
	lat               []time.Duration // round trips of successful posts
	roundP50          []time.Duration // median post round trip per round
	posted, accepted  int64
	failed            int64
	retrain           []time.Duration // per retrained round: completing ack → cycle end
	promoted          int
	rejected, errored int
}

// feedbackRounds posts feedback records round by round and times each
// retrain cycle. It returns once the last, un-retrained round is acked.
func feedbackRounds(ctx context.Context, srv *server, c, poll *http.Client, recs []labeled) (*feedbackResult, error) {
	res := &feedbackResult{}
	next := 0
	var body bytes.Buffer
	for round := 0; round <= retrainedRounds; round++ {
		target := roundSize
		if round == retrainedRounds {
			target = lastRound
		}
		before, err := srv.healthz(poll)
		if err != nil {
			return nil, err
		}
		var lastAck time.Time
		first := len(res.lat)
		for got := 0; got < target; {
			if next == len(recs) {
				return nil, fmt.Errorf("feedback records exhausted in round %d (%d/%d accepted)", round, got, target)
			}
			r := recs[next]
			next++
			body.Reset()
			json.NewEncoder(&body).Encode(struct {
				Query       string `json:"query"`
				Cardinality int64  `json:"cardinality"`
			}{r.SQL, r.Card})
			t0 := time.Now()
			resp, err := c.Post(srv.base+"/feedback", "application/json", bytes.NewReader(body.Bytes()))
			res.posted++
			if err != nil {
				res.failed++
				continue
			}
			var out struct {
				Accepted bool `json:"accepted"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			t1 := time.Now()
			if derr != nil || resp.StatusCode != http.StatusOK {
				res.failed++
				continue
			}
			res.lat = append(res.lat, t1.Sub(t0))
			if out.Accepted {
				res.accepted++
				got++
				lastAck = t1
			}
		}
		res.roundP50 = append(res.roundP50, percentile(res.lat[first:], 0.5))
		if round == retrainedRounds {
			break
		}
		end, h, err := waitCycle(ctx, srv, poll, before.cyclesEnded())
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		res.retrain = append(res.retrain, end.Sub(lastAck))
		t, b := h.Online.Trainer, before.Online.Trainer
		res.promoted += int(t.Promotions - b.Promotions)
		res.rejected += int(t.Rejections - b.Rejections)
		res.errored += int(t.TrainErrors - b.TrainErrors)
	}
	return res, nil
}

// waitCycle polls until the trainer has finished more cycles than before:
// a cycle ends in a promotion, a rejection or a train error.
func waitCycle(ctx context.Context, srv *server, poll *http.Client, before uint64) (time.Time, *healthz, error) {
	deadline := time.Now().Add(cycleTimeout)
	for {
		h, err := srv.healthz(poll)
		if err != nil {
			return time.Time{}, nil, err
		}
		if h.cyclesEnded() > before {
			return time.Now(), h, nil
		}
		if time.Now().After(deadline) {
			return time.Time{}, nil, fmt.Errorf("retrain cycle did not end within %v", cycleTimeout)
		}
		if err := sleepCtx(ctx, cyclePoll); err != nil {
			return time.Time{}, nil, err
		}
	}
}

// waitWALSynced returns once every record acked before the call is in the
// WAL segment file. Under -wal-sync interval an append lands in an
// in-process buffer that a background syncer writes every 50ms; a kill -9
// before that loses it. The syncer counts a sync only when records are
// pending, under the lock appends take, so one more counted sync covers
// every earlier append, and four quiet sync periods mean nothing was
// pending.
func waitWALSynced(ctx context.Context, srv *server, poll *http.Client) error {
	h, err := srv.healthz(poll)
	if err != nil {
		return err
	}
	want := h.Durable.WAL.Syncs + 1
	deadline := time.Now().Add(4 * 50 * time.Millisecond)
	for time.Now().Before(deadline) {
		if err := sleepCtx(ctx, cyclePoll); err != nil {
			return err
		}
		h, err := srv.healthz(poll)
		if err != nil {
			return err
		}
		if h.Durable.WAL.Syncs >= want {
			return nil
		}
	}
	return nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

package netlink

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// fateStep is one line of a fate script: an optional control action, then
// (unless size is 0) one packet of size bytes entering the link at the
// script's start plus at.
type fateStep struct {
	at   time.Duration
	size int
	do   func(l *Link, now time.Time)
}

// sends is n packets of size bytes, all entering at the instant at.
func sends(n int, at time.Duration, size int) []fateStep {
	s := make([]fateStep, n)
	for i := range s {
		s[i] = fateStep{at: at, size: size}
	}
	return s
}

func script(parts ...[]fateStep) []fateStep {
	var s []fateStep
	for _, p := range parts {
		s = append(s, p...)
	}
	return s
}

func do(fn func(l *Link, now time.Time)) []fateStep { return []fateStep{{do: fn}} }

func land(n int) []fateStep {
	return do(func(l *Link, _ time.Time) {
		for i := 0; i < n; i++ {
			l.Land()
		}
	})
}

var causeNames = map[Cause]string{DropIID: "iid", DropBurst: "burst", DropBlackout: "dark", DropQueue: "queue"}

// runFate plays a script against a fresh link and renders each packet's
// fate as one token: the drop cause, or the release delays in
// microseconds joined by "+".
func runFate(m LinkModel, seed int64, steps []fateStep) (string, ImpairStats) {
	var l Link
	l.Init(m, seed)
	start := time.Unix(1_000_000, 0)
	var out []string
	for _, st := range steps {
		now := start.Add(st.at)
		if st.do != nil {
			st.do(&l, now)
		}
		if st.size == 0 {
			continue
		}
		f := l.Fate(now, st.size)
		if f.N == 0 {
			out = append(out, causeNames[f.Drop])
			continue
		}
		var ds []string
		for _, d := range f.Delay[:f.N] {
			ds = append(ds, fmt.Sprint(d.Microseconds()))
		}
		out = append(out, strings.Join(ds, "+"))
	}
	return strings.Join(out, " "), l.Stats()
}

// TestFate pins the link model itself — no driver, goroutine, sleep or
// clock: seeds × models → the exact drop causes and release delays. The
// seeded loss, burst and jitter rows read the same from fabric.Port.Send
// as it was before the model moved here (same stream, same draw order),
// so they also pin that a seed's schedule has not moved.
func TestFate(t *testing.T) {
	const ms = time.Millisecond
	burst := &GilbertElliott{PGoodBad: 0.2, PBadGood: 0.2, LossBad: 1}
	cases := []struct {
		name  string
		model LinkModel
		seed  int64
		steps []fateStep
		want  string
		stats ImpairStats
	}{
		{
			name:  "perfect",
			steps: sends(3, 0, 10),
			want:  "0 0 0",
			stats: ImpairStats{Sent: 3},
		},
		{
			name:  "latency",
			model: LinkModel{Latency: 5 * ms},
			steps: script(sends(2, 0, 10), sends(1, 3*ms, 10)),
			want:  "5000 5000 5000",
			stats: ImpairStats{Sent: 3},
		},
		{
			// 1000 B/s and 100-byte packets: 100 ms each on the wire, one
			// behind the other; the clock idles once the backlog is out.
			name:  "bandwidth serializes",
			model: LinkModel{Bandwidth: 1000, Latency: ms},
			steps: script(sends(3, 0, 100), sends(1, 250*ms, 100), sends(1, 2000*ms, 50)),
			want:  "101000 201000 301000 151000 51000",
			stats: ImpairStats{Sent: 5},
		},
		{
			name:  "queue cap",
			model: LinkModel{Latency: 1000 * ms, Queue: 4},
			steps: script(sends(6, 0, 10), land(2), sends(3, ms, 10)),
			want:  "1000000 1000000 1000000 1000000 queue queue 1000000 1000000 queue",
			stats: ImpairStats{Sent: 9, Delivered: 2, DropQueue: 3},
		},
		{
			name:  "duplication",
			model: LinkModel{DupProb: 1, Latency: ms, Queue: 3},
			steps: sends(3, 0, 10),
			// The cap takes the second packet's duplicate, then the third
			// packet whole.
			want:  "1000+1000 1000 queue",
			stats: ImpairStats{Sent: 3, Duplicated: 3, DropQueue: 3},
		},
		{
			name: "blackout and SetLoss",
			steps: script(
				do(func(l *Link, _ time.Time) { l.SetBlackout(true) }), sends(2, 0, 10),
				do(func(l *Link, _ time.Time) { l.SetBlackout(false); l.SetLoss(1) }), sends(2, 0, 10),
				do(func(l *Link, _ time.Time) { l.SetLoss(0) }), sends(1, 0, 10),
			),
			want:  "dark dark iid iid 0",
			stats: ImpairStats{Sent: 5, DropBlackout: 2, DropIID: 2},
		},
		{
			name: "iid loss", model: LinkModel{Loss: 0.3}, seed: 1, steps: sends(32, 0, 10),
			want:  "0 0 0 0 0 0 0 0 iid 0 0 0 0 0 0 iid 0 0 0 0 iid iid 0 iid iid iid 0 0 iid 0 0 0",
			stats: ImpairStats{Sent: 32, DropIID: 8},
		},
		{
			name: "iid loss", model: LinkModel{Loss: 0.3}, seed: 2, steps: sends(32, 0, 10),
			want:  "0 0 0 0 0 0 0 0 iid 0 0 0 0 0 0 iid iid 0 0 iid iid 0 0 0 0 0 0 0 iid 0 0 0",
			stats: ImpairStats{Sent: 32, DropIID: 6},
		},
		{
			// The features that are off draw nothing: with latency and
			// bandwidth on, seed 1 loses the same packets as above.
			name: "iid loss, delayed", model: LinkModel{Loss: 0.3, Latency: ms, Bandwidth: 10_000_000}, seed: 1, steps: sends(12, 0, 10),
			want:  "1001 1002 1003 1004 1005 1006 1007 1008 iid 1009 1010 1011",
			stats: ImpairStats{Sent: 12, DropIID: 1},
		},
		{
			name: "burst loss", model: LinkModel{Burst: burst}, seed: 1, steps: sends(48, 0, 10),
			want: "0 0 0 0 0 burst burst burst 0 0 0 0 0 0 0 0 0 0 burst burst 0 0 burst burst " +
				"burst 0 burst burst burst burst burst burst burst burst burst 0 0 0 0 0 0 0 0 0 burst burst burst burst",
			stats: ImpairStats{Sent: 48, DropBurst: 21},
		},
		{
			name: "burst loss", model: LinkModel{Burst: burst}, seed: 2, steps: sends(48, 0, 10),
			want: "0 0 0 0 0 0 0 0 0 0 0 0 0 0 burst burst burst 0 0 0 0 0 0 0 " +
				"0 0 0 0 0 0 0 0 0 0 0 0 0 burst burst burst burst burst burst burst burst burst burst burst",
			stats: ImpairStats{Sent: 48, DropBurst: 14},
		},
		{
			name: "jitter and duplication", model: LinkModel{DupProb: 0.5, Latency: ms, Jitter: ms}, seed: 1, steps: sends(8, 0, 10),
			want:  "1890 1530+1867 1636+1376 1336+1163 1120 1901 1493+1787 1888",
			stats: ImpairStats{Sent: 8, Duplicated: 4},
		},
		{
			name: "jitter and duplication", model: LinkModel{DupProb: 0.5, Latency: ms, Jitter: ms}, seed: 3, steps: sends(8, 0, 10),
			want:  "1937 1755+1230 1937+1839 1816+1309 1845+1340 1897 1252+1937 1673+1327",
			stats: ImpairStats{Sent: 8, Duplicated: 6},
		},
		{
			// A held packet waits a uniform [0, 2·ReleaseEvery) more; the
			// rest are not delayed at all.
			name: "reorder", model: LinkModel{ReorderProb: 0.5, ReleaseEvery: 100 * time.Microsecond}, seed: 1, steps: sends(12, 0, 10),
			want:  "0 168 0 36 0 0 59 0 55 187 0 98",
			stats: ImpairStats{Sent: 12},
		},
		{
			name: "reorder, default hold", model: LinkModel{ReorderProb: 1}, seed: 2, steps: sends(6, 0, 10),
			want:  "75 359 80 39 377 142",
			stats: ImpairStats{Sent: 6},
		},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/seed=%d", tc.name, tc.seed), func(t *testing.T) {
			got, stats := runFate(tc.model, tc.seed, tc.steps)
			if got != tc.want {
				t.Errorf("fates:\n got %s\nwant %s", got, tc.want)
			}
			if stats != tc.stats {
				t.Errorf("stats:\n got %+v\nwant %+v", stats, tc.stats)
			}
			if again, _ := runFate(tc.model, tc.seed, tc.steps); again != got {
				t.Errorf("same seed, different fates:\n%s\n%s", got, again)
			}
		})
	}
}

// TestFateAllocatesNothing is the model's allocation budget: fabric.Port.Send
// and ImpairedConn ask Fate about every packet, so with every feature on
// — loss, burst, duplication, reorder, latency, jitter, bandwidth — a
// Fate and a Land per released copy cost no allocation.
func TestFateAllocatesNothing(t *testing.T) {
	var l Link
	l.Init(LinkModel{
		Loss: 0.1, DupProb: 0.2, ReorderProb: 0.3,
		Burst:   &GilbertElliott{PGoodBad: 0.1, PBadGood: 0.3, LossGood: 0.01, LossBad: 0.8},
		Latency: time.Millisecond, Jitter: time.Millisecond, Bandwidth: 1 << 20,
	}, 7)
	now := time.Unix(1_000_000, 0)
	if got := testing.AllocsPerRun(1000, func() {
		now = now.Add(100 * time.Microsecond)
		for f := l.Fate(now, 64); f.N > 0; f.N-- {
			l.Land()
		}
	}); got != 0 {
		t.Errorf("Fate + Land: %v allocs per packet, want 0", got)
	}
	if st := l.Stats(); st.Delivered == 0 || st.Duplicated == 0 || st.DropIID == 0 || st.DropBurst == 0 {
		t.Errorf("the run did not visit every branch: %+v", st)
	}
}

// TestFateBurstsAreBursts checks the one thing about burst loss a pinned
// row cannot say: over many packets the drops of a Gilbert–Elliott link
// come in runs of about 1/PBadGood, where i.i.d. loss at the same rate
// gives runs of about 1/(1-rate).
func TestFateBurstsAreBursts(t *testing.T) {
	meanRun := func(m LinkModel, seed int64) (run float64, lost int) {
		fates, _ := runFate(m, seed, sends(4000, 0, 10))
		runs, in := 0, false
		for _, f := range strings.Fields(fates) {
			drop := f != "0"
			if drop {
				lost++
				if !in {
					runs++
				}
			}
			in = drop
		}
		return float64(lost) / float64(runs), lost
	}
	for seed := int64(1); seed <= 5; seed++ {
		burst, lostBurst := meanRun(LinkModel{Burst: &GilbertElliott{PGoodBad: 0.1, PBadGood: 0.1, LossBad: 1}, Queue: 4000}, seed)
		iid, lostIID := meanRun(LinkModel{Loss: 0.5, Queue: 4000}, seed)
		if lostBurst < 1200 || lostBurst > 2800 || lostIID < 1700 || lostIID > 2300 {
			t.Errorf("seed %d: lost %d (burst) and %d (i.i.d.) of 4000, want about half", seed, lostBurst, lostIID)
		}
		if burst < 6 || iid > 3 {
			t.Errorf("seed %d: mean loss run %.1f (burst, want ~10) vs %.1f (i.i.d., want ~2)", seed, burst, iid)
		}
	}
}

package replay_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"sforder/internal/core"
	"sforder/internal/harness"
	"sforder/internal/progen"
	"sforder/internal/replay"
	"sforder/internal/trace"
	"sforder/internal/workload"
)

// FuzzReplay feeds arbitrary bytes to both replay sources. Replay never
// panics; whatever trace.Load rejects, RunStream rejects too; and on
// every accepted capture Run and RunStream agree on the verdict at 1 and
// 4 workers over OM and DePa. The one input the sources may disagree
// on is a block read before its strand's introduction: the capture
// source applies every structure event first, so only the stream sees
// the forward reference (and rejects it).
func FuzzReplay(f *testing.F) {
	for _, b := range []*workload.Benchmark{
		workload.Sort(64, 16),
		workload.MM(8, 4),
		workload.Pipeline(3, 4, 1),
		workload.Chain(4, 2),
	} {
		raw, err := harness.RecordCapture(b, 2)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		f.Add(raw[:len(raw)-1])
	}
	racy, _ := recordBytes(f, progen.New(progen.Config{Seed: 7, MaxDepth: 4, MaxOps: 8, Addrs: 4}).Main(), 1)
	f.Add(racy)

	f.Fuzz(func(t *testing.T, raw []byte) {
		c, loadErr := trace.Load(bytes.NewReader(raw))
		for _, sub := range []core.Substrate{core.SubstrateOM, core.SubstrateDePa} {
			for _, workers := range []int{1, 4} {
				opts := replay.Options{Workers: workers, Reach: sub}
				streamed, streamErr := replay.RunStream(bytes.NewReader(raw), opts)
				if loadErr != nil {
					if streamErr == nil {
						t.Fatalf("Load rejects (%v), RunStream accepts", loadErr)
					}
					continue
				}
				loaded, runErr := replay.Run(c, opts)
				switch {
				case runErr != nil && streamErr == nil:
					t.Fatalf("%v/%dw: Run rejects (%v), RunStream accepts", sub, workers, runErr)
				case runErr == nil && streamErr != nil:
					if !strings.Contains(streamErr.Error(), "access block names unknown strand") {
						t.Fatalf("%v/%dw: RunStream rejects (%v), Run accepts", sub, workers, streamErr)
					}
				case runErr == nil:
					if loaded.RaceCount != streamed.RaceCount ||
						!slices.Equal(loaded.RacyAddrs, streamed.RacyAddrs) ||
						!slices.Equal(loaded.Races, streamed.Races) {
						t.Fatalf("%v/%dw: Run %d races on %v, RunStream %d on %v", sub, workers,
							loaded.RaceCount, loaded.RacyAddrs, streamed.RaceCount, streamed.RacyAddrs)
					}
				}
			}
		}
	})
}

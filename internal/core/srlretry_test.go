package core

import (
	"reflect"
	"testing"

	"srlproc/internal/trace"
)

// TestSRLRetryMemoMatchesEveryPass runs SRL designs twice, once as built
// and once with retrySRLStalled's memo cleared before every cycle, so that
// every stalled load is re-examined every cycle. The results must be
// identical, and the memo must actually have skipped passes. The no-LCF
// variant stalls on the SRL head alone, the no-indexed-forwarding one on
// the LCF alone; the default design stalls on both.
func TestSRLRetryMemoMatchesEveryPass(t *testing.T) {
	noLCF := shortCfg(DesignSRL)
	noLCF.UseLCF, noLCF.UseIndexedFwd = false, false
	noIdx := shortCfg(DesignSRL)
	noIdx.UseIndexedFwd = false
	for _, tc := range []struct {
		name  string
		cfg   Config
		suite trace.Suite
	}{
		{"SRL/SFP2K", shortCfg(DesignSRL), trace.SFP2K},
		{"SRL-sync/SERVER", withSyncKnobs(shortCfg(DesignSRL)), trace.SERVER},
		{"SRL-noLCF/SFP2K", noLCF, trace.SFP2K},
		{"SRL-noIndexedFwd/WS", noIdx, trace.WS},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(clear bool) (*Results, int) {
				c, err := New(tc.cfg, tc.suite)
				if err != nil {
					t.Fatal(err)
				}
				skipped := 0
				for !c.Done() {
					if clear {
						c.srlRetry.idle = false
					}
					// A cycle that starts with a current idle memo and ends
					// with every mutation count unchanged skipped its pass:
					// the counts only grow, so a pass that ran would have
					// recorded a newer key.
					at := c.srlRetry.at
					current := len(c.srlStalled) > 0 && c.srlRetry.idle && at == c.srlRetryKey()
					c.StepCycle()
					if current && c.srlRetryKey() == at && c.srlRetry.at == at {
						skipped++
					}
				}
				return c.Finalize(), skipped
			}
			want, _ := run(true)
			got, skipped := run(false)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("results differ with the memo on:\n got %+v\nwant %+v", got, want)
			}
			if skipped == 0 {
				t.Fatal("the memo never skipped a pass")
			}
			t.Logf("%d passes skipped, %d SRL load stalls", skipped, got.SRLLoadStalls)
		})
	}
}

package service

import (
	"encoding/json"
	"testing"
)

// FuzzRequestValidate throws arbitrary JSON at the request decode →
// Normalize → Hash pipeline — the exact path every byte of an incoming
// POST /v1/jobs body takes — and checks the invariants the service is
// built on:
//
//   - Normalize never panics, whatever the bytes decode to.
//   - A request that normalizes also hashes, and hashing is stable.
//   - Normalize is idempotent: normalizing its own output succeeds and
//     changes nothing (defaults are fully applied in one pass).
//   - Workers and Batch are scheduling-only: flipping them on the
//     normalized request never moves the canonical hash.
func FuzzRequestValidate(f *testing.F) {
	seeds := []string{
		`{"study":"freq_sweep","freq_sweep":{"lo_hz":100e3,"hi_hz":5e6,"points":8,"sync":true}}`,
		`{"study":"freq_sweep","quick":true,"workers":3,"batch":8,"freq_sweep":{"lo_hz":35e3,"hi_hz":2e6,"points":3}}`,
		`{"study":"vmin_walk","vmin_walk":{"freq_hz":2e6,"events":50}}`,
		`{"study":"vmin_walk","vmin_walk":{"freq_hz":2e6,"fail_voltage":0.9,"min_bias":0.85}}`,
		`{"study":"epi_profile","epi_profile":{}}`,
		`{"study":"epi_profile","epi_profile":{"top_n":3,"measure_cycles":1024,"warmup_cycles":64}}`,
		`{"study":"epi_profile","epi_profile":{"warmup_cycles":1048577}}`,
		`{"study":"guardband","guardband":{"droops":[0,1,2,3,4,5,6],"trace":[{"active_cores":2,"duration_s":1}]}}`,
		`{"study":"guardband","guardband":{"trace":[{"active_cores":6,"duration_s":0.5}],"freq_hz":2e6,"events":50}}`,
		`{"study":"population","population":{"chips":100,"age_years":5,"mix":["o3","io","o3","io","o3","io"],"tech_node":22,"decap_scale":0.8,"exit_hz":1e6,"warmup_s":5e-6,"seed":42,"rlc_bins":4,"safety_percent":2}}`,
		`{"study":"population","population":{"chips":10}}`,
		`{"study":"population","population":{"chips":0,"mix":["npu"],"tech_node":28,"exit_hz":-1}}`,
		// Streaming-era shapes: the requests the typed client
		// constructors and the watch walkthroughs produce (big sweeps
		// and fleets watched over /v1/jobs/{id}/events).
		`{"study":"freq_sweep","quick":true,"workers":8,"batch":8,"freq_sweep":{"lo_hz":10e3,"hi_hz":10e6,"points":10000}}`,
		`{"study":"population","workers":8,"batch":8,"population":{"chips":1000,"age_years":7,"mix":["o3","io","o3","io","o3","io"],"tech_node":22,"exit_hz":2e6,"warmup_s":4e-6,"seed":7,"rlc_bins":4}}`,
		`{"study":"vmin_walk","quick":true,"workers":4,"batch":3,"vmin_walk":{"freq_hz":2.5e6,"events":10,"min_bias":0.92}}`,
		`{"study":"epi_profile","workers":4,"batch":3,"epi_profile":{"top_n":3,"measure_cycles":1024}}`,
		`{"study":"nope"}`,
		`{"study":"freq_sweep"}`,
		`{"study":"freq_sweep","freq_sweep":{"lo_hz":-1,"hi_hz":5e6,"points":8}}`,
		`{"study":"freq_sweep","freq_sweep":{"lo_hz":1,"hi_hz":2,"points":9999}}`,
		`{"study":"freq_sweep","freq_sweep":{"lo_hz":1,"hi_hz":2,"points":2},"vmin_walk":{"freq_hz":1}}`,
		`{"workers":-4,"batch":-1}`,
		`{`,
		``,
		`null`,
		`[1,2,3]`,
		`{"study":"guardband","guardband":{"droops":[0,-1,2,3,4,5,6],"trace":[{"active_cores":9,"duration_s":-1}]}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := json.Unmarshal(data, &req); err != nil {
			return // not a decodable request; the HTTP layer rejects it earlier
		}
		n, err := req.Normalize()
		if err != nil {
			if n != nil {
				t.Fatalf("Normalize returned both a request and error %v", err)
			}
			return
		}
		h1, err := req.Hash()
		if err != nil {
			t.Fatalf("request normalizes but does not hash: %v", err)
		}
		h2, err := req.Hash()
		if err != nil || h1 != h2 {
			t.Fatalf("hash unstable: %q then %q (err %v)", h1, h2, err)
		}
		// Idempotence: the normalized form is a fixed point.
		n2, err := n.Normalize()
		if err != nil {
			t.Fatalf("re-normalizing normalized request: %v", err)
		}
		b1, _ := json.Marshal(n)
		b2, _ := json.Marshal(n2)
		if string(b1) != string(b2) {
			t.Fatalf("Normalize not idempotent:\n%s\n%s", b1, b2)
		}
		// Scheduling knobs never move the canonical hash.
		sched := *n
		sched.Workers, sched.Batch = 7, 3
		hs, err := sched.Hash()
		if err != nil || hs != h1 {
			t.Fatalf("workers/batch moved the hash: %q vs %q (err %v)", hs, h1, err)
		}
	})
}

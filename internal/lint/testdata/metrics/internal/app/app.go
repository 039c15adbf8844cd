// Fixture for the metrics analyzer: family-name hygiene, label
// boundedness (including the interprocedural helper and parameter
// summaries), kind stability, and the suppression escape hatches.
package app

import (
	"fmt"
	"strconv"

	"cwc/internal/obs"
)

const famJobs = "cwc_jobs_total"

func register(r *obs.Registry, n, k int) {
	r.Counter(famJobs)
	r.Help(famJobs, "jobs accepted by the master")
	r.Counter("cwc_frames_total", "type", "welcome")
	r.Histogram("cwc_lat_ms")

	r.Counter("jobs_total")                     // want `metric family "jobs_total" does not match`
	r.Counter(fmt.Sprintf("cwc_%s_total", "x")) // want `dynamically constructed name`

	r.Counter("cwc_temp")
	r.Gauge("cwc_temp") // want `registered as Gauge here but as Counter at`

	r.Counter("cwc_bad_key_total", "Phone", "a")         // want `label key "Phone" is not a lowercase identifier`
	r.Counter("cwc_dyn_key_total", strconv.Itoa(n), "a") // want `label key must be a compile-time constant`
	r.Gauge("cwc_queue_depth", "phone", strconv.Itoa(n)) // want `label value strconv\.Itoa\(\) is unbounded`

	//lint:ignore metrics the phone label is bounded by fleet size in this fixture
	r.Gauge("cwc_phone_rtt", "phone", strconv.Itoa(n))

	r.Counter("cwc_events_total", "kind", kindLabel(k))
}

// kindLabel folds an event kind onto a fixed label vocabulary; every
// return is a constant, so its result is a bounded label value.
func kindLabel(k int) string {
	switch k {
	case 1:
		return "assign"
	case 2:
		return "result"
	default:
		return "other"
	}
}

// gauges registers families drawn from a constant-keyed map literal.
func gauges(r *obs.Registry) {
	fams := map[string]string{"cwc_exec_ms": "exec", "cwc_mem_mb": "mem"}
	for fam := range fams {
		r.Gauge(fam)
	}
}

// record's status parameter is bounded because every module call site
// passes a constant.
func record(r *obs.Registry, status string) {
	r.Counter("cwc_results_total", "status", status)
}

func drive(r *obs.Registry) {
	record(r, "ok")
	record(r, "failed")
}

func clean(r *obs.Registry) {
	//lint:ignore metrics stale: nothing on the next line needs it
	r.Counter("cwc_clean_total") // want `lint:ignore metrics suppresses nothing`

	//lint:ignore metrics,unused kept while the migration note still cites it
	r.Counter("cwc_kept_total")
}

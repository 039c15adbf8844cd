package app

// Raw evidence for the metrics analyzer's test-file scan: names here are
// matched textually against the registered families.

const (
	seenJobs  = "cwc_jobs_total"
	seenHisto = "cwc_lat_ms_bucket"
	missing   = "cwc_ghost_total" // want `referenced here but never registered by the module`
)

// lint:ignore metrics retired family cited by the upgrade notes only
const retired = "cwc_retired_total"

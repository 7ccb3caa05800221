package main

// metricDef is one metric the program prints. The smoke test holds the
// names and units equal to BENCHMARK.json.
type metricDef struct{ Name, Unit string }

// endToEndDef is a bounded metric: what a user of the system waits on or
// pays for. Bound is the share of the base's median by which it may get
// worse before -compare calls it regressed.
type endToEndDef struct {
	metricDef
	HigherIsBetter bool
	Bound          float64
	// Workloads lists where the metric is reported; nil means on all of
	// them. BENCHMARK.json carries the metrics reported everywhere (the
	// driver wants every one of its metrics from every workload, never
	// 0); the others are printed and gated by -compare all the same.
	Workloads []string
}

// The timing bounds are the driver's maximum: the measured run-to-run
// spreads that set them are in README.md.
var endToEnd = []endToEndDef{
	{metricDef{"setup_s", "s"}, false, 0.25, nil},
	{metricDef{"peak_rss_mb", "MB"}, false, 0.15, nil},
	{metricDef{"op_p50_ms", "ms"}, false, 0.25, nil},
	{metricDef{"op_p90_ms", "ms"}, false, 0.25, nil},
	{metricDef{"ops_per_s", "1/s"}, true, 0.25, nil},
	// What the sender and the receiver each wait on.
	{metricDef{"seal_p50_ms", "ms"}, false, 0.25, []string{"message-bls12381"}},
	{metricDef{"open_p50_ms", "ms"}, false, 0.25, []string{"message-bls12381"}},
	// 48 × completed catch-ups per second.
	{metricDef{"epochs_per_s", "1/s"}, true, 0.25, []string{"coldstart-ss512"}},
	// One 8-token blind issuance; admitted redemptions across both clients.
	{metricDef{"issue_p50_ms", "ms"}, false, 0.25, []string{"tokens-bls12381"}},
	{metricDef{"redeem_per_s", "1/s"}, true, 0.25, []string{"tokens-bls12381"}},
}

// reportedOn says whether the metric is reported on the workload.
func (d endToEndDef) reportedOn(workload string) bool {
	if d.Workloads == nil {
		return true
	}
	for _, w := range d.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// perLayer are single layers, reported on a traced run; a layer that is
// not on a workload's path reads 0 there.
var perLayer = []metricDef{
	// The operation's phases: what each party waits on.
	{"op.seal_ms", "ms"},
	{"op.open_ms", "ms"},
	{"op.issue_ms", "ms"},
	{"op.redeem_ms", "ms"},
	{"op.respend_ms", "ms"},
	// message-bls12381: seal, then fetch → decode → verify → decrypt.
	{"core.encrypt_cca_ms", "ms"},
	{"timeserver.http_get_ms", "ms"},
	{"timeserver.handler_ms", "ms"},
	{"archive.get_ms", "ms"},
	{"wire.decode_update_ms", "ms"},
	{"core.verify_update_ms", "ms"},
	{"core.decrypt_cca_ms", "ms"},
	// coldstart-ss512: one range page, checked four ways.
	{"timeserver.catchup_http_ms", "ms"},
	{"archive.range_ms", "ms"},
	{"wire.decode_catchup_ms", "ms"},
	{"archive.merkle_root_ms", "ms"},
	{"core.verify_aggregate_ms", "ms"},
	{"core.verify_batch_ms", "ms"},
	{"core.verify_ms_per_epoch", "ms"},
	// broadcast-test160: sign, store, fan out, relay, verify.
	{"timeserver.publish_call_ms", "ms"},
	{"core.issue_update_ms", "ms"},
	{"archive.put_ms", "ms"},
	{"wire.encode_update_ms", "ms"},
	{"timeserver.relay_hop_ms", "ms"},
	{"timeserver.audience_last_ms", "ms"},
	{"timeserver.generator_late_p99_ms", "ms"},
	{"timeserver.audience_delivered_ratio", "ratio"},
	{"timeserver.sheds", "count"},
	// tokens-bls12381: blind issuance, gated redemption.
	{"timeserver.token_key_http_ms", "ms"},
	{"timeserver.issue_http_ms", "ms"},
	{"token.blind_ms", "ms"},
	{"token.sign_blinded_ms", "ms"},
	{"token.unblind_ms", "ms"},
	{"wire.decode_token_ms", "ms"},
	{"token.redeem_ms", "ms"},
	{"token.ledger_spend_ms", "ms"},
	{"token.double_spend_rejects_per_op", "count"},
	// Backend primitives on the operation's own inputs, per preset.
	{"backend.hash_to_g2_ms", "ms"},
	{"backend.pair_ms", "ms"},
	{"backend.pair_check_ms", "ms"},
	{"backend.pair_product_ms", "ms"},
	{"backend.scalar_mult_g1_ms", "ms"},
	{"backend.scalar_mult_g2_ms", "ms"},
	{"backend.in_subgroup_g2_ms", "ms"},
	{"backend.parse_g2_ms", "ms"},
	{"backend.gt_exp_ms", "ms"},
	// Field unit probes, the same on every workload.
	{"bls381.fe_mul_ns", "ns"},
	{"bls381.fe_inv_us", "us"},
	{"ff.ss512_mul_ns", "ns"},
	{"ff.ss512_inv_us", "us"},
	// Counts, on every workload.
	{"core.pairings_per_op", "count"},
	{"core.labelpoint_cache_hit_ratio", "ratio"},
	{"runtime.alloc_kb_per_op", "kB"},
	{"runtime.gc_cycles_per_s", "1/s"},
	{"wire.update_bytes", "B"},
	{"wire.ciphertext_overhead_bytes", "B"},
	{"wire.catchup_bytes_per_epoch", "B"},
	// The trace's own checks.
	{"trace.op_p50_ms", "ms"},
	{"trace.unattributed_share", "ratio"},
}

// catalogue is what a run of the workload prints.
func catalogue(workload string, trace bool) []metricDef {
	if trace {
		return perLayer
	}
	var defs []metricDef
	for _, d := range endToEnd {
		if d.reportedOn(workload) {
			defs = append(defs, d.metricDef)
		}
	}
	return defs
}

// driverMetrics are the metrics of the result line, BENCHMARK.json's:
// the ones every workload reports.
func driverMetrics(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	var defs []metricDef
	for _, d := range endToEnd {
		if d.Workloads == nil {
			defs = append(defs, d.metricDef)
		}
	}
	return defs
}

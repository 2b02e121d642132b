#!/usr/bin/env python3
"""Unit tests of tools/check_artifacts.py: every subcommand passes on a
well-formed fixture and fails on one with a single expectation broken.

  python3 tests/tools/check_artifacts_test.py
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in tools/
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "..", "tools"))
import check_artifacts  # noqa: E402


def span(name, dur=5, **args):
    e = {"name": name, "ph": "X", "ts": 0, "dur": dur}
    if args:
        e["args"] = args
    return e


def flow(ph, fid):
    return {"name": "flow", "cat": "wm.flow", "ph": ph, "id": fid, "ts": 0}


class CheckArtifactsTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, name, content):
        with open(os.path.join(self.dir, name), "w") as f:
            if isinstance(content, str):
                f.write(content)
            elif isinstance(content, list):  # JSONL
                f.write("".join(json.dumps(l) + "\n" for l in content))
            else:
                json.dump(content, f)

    def run_check(self, *args):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = check_artifacts.main(list(args) + ["--dir", self.dir])
        return code, err.getvalue()

    def assert_passes(self, command):
        code, err = self.run_check(command)
        self.assertEqual(code, 0, err)

    def assert_fails(self, command, why):
        code, err = self.run_check(command)
        self.assertEqual(code, 1)
        self.assertIn(why, err)

    def test_observability(self):
        self.write("trace.json", {"traceEvents": [
            span("gemm"), span("conv2d.fwd"), span("train.epoch"),
            span("serve.flush")]})
        self.write("obs_metrics.prom", "wm_train_loss 1\n"
                   "wm_serve_requests_total 3\nwm_tensor_gemm_calls_total 9\n")
        self.write("obs_run_log.jsonl", [{"event": "epoch"}])
        self.assert_passes("observability")
        self.write("trace.json", {"traceEvents": [
            span("gemm"), span("conv2d.fwd"), span("train.epoch")]})
        self.assert_fails("observability", "serve.flush")

    def test_monitoring(self):
        counters = ["monitor.coverage", "monitor.abstention_ewma",
                    "monitor.selective_risk", "serve.queue_depth"]
        self.write("monitoring_trace.json", {"traceEvents": [
            {"name": c, "ph": "C"} for c in counters]})
        self.write("monitoring_run_log.jsonl", [{"event": "drift_alarm"}])
        self.write("monitoring_metrics.prom",
                   "wm_monitor_alarm 1\nwm_monitor_alarms_total 1\n")
        self.assert_passes("monitoring")
        self.write("monitoring_metrics.prom",
                   "wm_monitor_alarm 0\nwm_monitor_alarms_total 0\n")
        self.assert_fails("monitoring", "alarm gauge not raised")

    def test_adaptation(self):
        story = ["drift_alarm", "adapt_alarm", "adapt_recalibrate",
                 "model_swap", "adapt_resolved", "adapt_alarm",
                 "adapt_recalibrate", "model_swap", "adapt_pseudo_label",
                 "adapt_retrain", "model_swap", "adapt_resolved"]
        stages = iter(["recalibrate", "retrain"])
        lines = [{"event": e, **({"stage": next(stages)}
                                 if e == "adapt_resolved" else {})}
                 for e in story]
        self.write("adaptation_run_log.jsonl", lines)
        self.write("adaptation_metrics.prom",
                   "wm_adapt_recalibrations_total 2\n"
                   "wm_adapt_retrains_total 1\nwm_serve_model_version 4\n")
        self.assert_passes("adaptation")
        self.write("adaptation_run_log.jsonl",
                   lines + [{"event": "adapt_rollback"}])
        self.assert_fails("adaptation", "rolled back")

    def test_quant(self):
        self.write("eval_fp32.txt", "Overall: accuracy = 91.50%\n")
        self.write("eval_int8.txt",
                   "quantized model\nOverall: accuracy = 91.00%\n")
        self.assert_passes("quant")
        self.write("eval_int8.txt",
                   "quantized model\nOverall: accuracy = 89.00%\n")
        self.assert_fails("quant", "drifted 2.50pp")

    def test_fleet_obs(self):
        self.write("ci_fleet_view.json", {
            "targets_total": 3,
            "histograms": {"wm_net_request_latency_us": {"count": 30}},
            "per_target_histogram_counts": {
                "wm_net_request_latency_us": {"a": 10, "b": 12, "c": 8}}})
        report = {"collector_rounds": 9, "collector_targets_up": 3,
                  "collector_up_transitions": 5, "collector_slo_fires": 1,
                  "collector_slo_clears": 1, "fleet_collected_rps": 300.0}
        self.write("ci_fleet_obs.json", report)
        self.write("ci_fleet_runlog.jsonl", [
            {"event": "slo_burn", "rule": "latency_p99"},
            {"event": "slo_clear", "rule": "latency_p99"}])
        self.assert_passes("fleet-obs")
        # Without the kill the collector sees only the first scrapes.
        self.write("ci_fleet_obs.json",
                   dict(report, collector_up_transitions=3))
        self.assert_fails("fleet-obs", "collector_up_transitions")

    def test_tracing(self):
        self.write("merged_trace.json", {"traceEvents": [
            flow("s", "0x1"), flow("t", "0x1"), flow("f", "0x1"),
            span("client.call", trace_id="0x1"),
            span("server.request", trace_id="0x1")]})
        exemplar = {"event": "slow_request", "trace_id": "0x1", "e2e_us": 9,
                    "queue_us": 1, "batch_us": 1, "compute_us": 5,
                    "server_total_us": 8, "abstained": False}
        self.write("slow.jsonl", [exemplar])
        self.assert_passes("tracing")
        del exemplar["abstained"]
        self.write("slow.jsonl", [exemplar])
        self.assert_fails("tracing", "missing abstained")

    def test_missing_artifact_fails(self):
        self.assert_fails("quant", "FileNotFoundError")


if __name__ == "__main__":
    unittest.main()

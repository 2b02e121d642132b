#!/usr/bin/env python3
"""Validates the artifacts the demos and tools leave behind.

One subcommand per CI smoke step; each reads the files a run wrote and
exits non-zero, naming the first broken expectation, unless every check
holds:

  observability  observability_demo: trace spans of every instrumented
                 layer, the Prometheus dump and the JSONL run log
  monitoring     monitoring_demo: counter tracks, drift_alarm event, the
                 raised alarm gauge
  adaptation     adaptation_demo: the run log tells the closed loop's story
                 in order (alarm, recalibrate, pseudo-label, retrain,
                 canary-verified swaps, resolved, never rolled back)
  quant          `wm_tool evaluate` of an fp32 model and its int8
                 quantization: accuracy within 1 point
  fleet-obs      loadgen --fleet --kill-replica with a collector: the
                 /fleet snapshot is self-consistent, up flipped during the
                 kill, the provoked SLO fired and cleared
  tracing        wm_tool trace-merge output: linked flow chains, traces
                 spanning client and server, slow-request exemplars

Run from the directory holding the artifacts, or pass --dir:

  python3 tools/check_artifacts.py observability --dir build/examples

tests/tools/check_artifacts_test.py runs every subcommand on a passing and
a failing fixture.
"""
import argparse
import collections
import json
import os
import re
import sys


class CheckFailed(Exception):
    pass


def check(cond, message):
    if not cond:
        raise CheckFailed(message)


def read(path):
    with open(path) as f:
        return f.read()


def load_json(path):
    with open(path) as f:
        return json.load(f)


def load_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


def observability(d):
    events = load_json(os.path.join(d, "trace.json"))["traceEvents"]
    names = {e["name"] for e in events if e.get("ph") == "X"}
    missing = {"gemm", "conv2d.fwd", "train.epoch", "serve.flush"} - names
    check(not missing, f"trace missing spans: {missing}")
    check(all(e["dur"] >= 0 for e in events if e.get("ph") == "X"),
          "trace has a span with negative duration")
    prom = read(os.path.join(d, "obs_metrics.prom"))
    for metric in ("wm_train_loss", "wm_serve_requests_total",
                   "wm_tensor_gemm_calls_total"):
        check(metric in prom, f"metrics dump missing {metric}")
    lines = load_jsonl(os.path.join(d, "obs_run_log.jsonl"))
    check(any(l["event"] == "epoch" for l in lines),
          "run log has no epoch event")
    return (f"trace OK ({len(events)} events), metrics OK, "
            f"run log OK ({len(lines)} lines)")


def monitoring(d):
    doc = load_json(os.path.join(d, "monitoring_trace.json"))
    counters = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "C"}
    missing = {"monitor.coverage", "monitor.abstention_ewma",
               "monitor.selective_risk", "serve.queue_depth"} - counters
    check(not missing, f"trace missing counter tracks: {missing}")
    lines = load_jsonl(os.path.join(d, "monitoring_run_log.jsonl"))
    check(any(l["event"] == "drift_alarm" for l in lines),
          "run log has no drift_alarm event")
    prom = read(os.path.join(d, "monitoring_metrics.prom"))
    check("wm_monitor_alarm 1" in prom, "alarm gauge not raised")
    check("wm_monitor_alarms_total" in prom,
          "metrics dump missing wm_monitor_alarms_total")
    return (f"monitoring OK ({len(counters)} counter tracks, "
            f"{len(lines)} run-log lines)")


def adaptation(d):
    lines = load_jsonl(os.path.join(d, "adaptation_run_log.jsonl"))
    events = [l["event"] for l in lines]

    def first(name):
        check(name in events,
              f"run log has no {name} event: {sorted(set(events))}")
        return events.index(name)

    # The loop only ever acts on an alarm it announced.
    check(first("drift_alarm") < first("adapt_alarm")
          < first("adapt_recalibrate"),
          "drift_alarm < adapt_alarm < adapt_recalibrate does not hold")
    # Stage order: the cheap re-fit always runs before an escalated retrain,
    # and the retrain's pseudo-labels are assigned before the fine-tuned
    # candidate is promoted.
    check(first("adapt_recalibrate") < first("adapt_retrain"),
          "adapt_retrain ran before adapt_recalibrate")
    check(first("adapt_pseudo_label") < first("adapt_retrain"),
          "adapt_retrain ran before adapt_pseudo_label")
    # Every promotion goes through the canary-verified swap path.
    swaps = events.count("model_swap")
    actions = events.count("adapt_recalibrate") + events.count("adapt_retrain")
    check(swaps >= actions >= 3, f"swaps {swaps}, actions {actions}")
    # Both episodes end resolved, never rolled back.
    rollbacks = [l for l in lines if l["event"] == "adapt_rollback"]
    check(not rollbacks, f"rolled back: {rollbacks}")
    resolved = [i for i, e in enumerate(events) if e == "adapt_resolved"]
    check(resolved and resolved[-1] > events.index("adapt_retrain"),
          "no adapt_resolved after the retrain")
    stages = {l["stage"] for l in lines if l["event"] == "adapt_resolved"}
    check("recalibrate" in stages and "retrain" in stages,
          f"resolved stages {sorted(stages)}")
    prom = read(os.path.join(d, "adaptation_metrics.prom"))
    for metric in ("wm_adapt_recalibrations_total", "wm_adapt_retrains_total",
                   "wm_serve_model_version"):
        check(metric in prom, f"metrics dump missing {metric}")
    return (f"adaptation OK: {actions} actions, {swaps} swaps, "
            f"{len(resolved)} resolved episodes, stages {sorted(stages)}")


def quant(d):
    def acc(path):
        text = read(path)
        m = re.search(r"Overall: accuracy = ([0-9.]+)%", text)
        check(m, f"no overall accuracy in {path}:\n{text}")
        return float(m.group(1))

    fp32_path = os.path.join(d, "eval_fp32.txt")
    int8_path = os.path.join(d, "eval_int8.txt")
    check("quantized model" in read(int8_path),
          f"{int8_path} does not report a quantized model")
    fp32, int8 = acc(fp32_path), acc(int8_path)
    delta = abs(fp32 - int8)
    check(delta <= 1.0,
          f"int8 accuracy {int8}% drifted {delta:.2f}pp from fp32 {fp32}%")
    return f"quantized accuracy OK: fp32 {fp32}% vs int8 {int8}%"


def fleet_obs(d):
    fleet = load_json(os.path.join(d, "ci_fleet_view.json"))
    check(fleet["targets_total"] == 3, f"targets_total: {fleet}")
    hists = fleet["histograms"]
    per = fleet["per_target_histogram_counts"]
    check("wm_net_request_latency_us" in hists, f"histograms {sorted(hists)}")
    merged = hists["wm_net_request_latency_us"]["count"]
    split = sum(per["wm_net_request_latency_us"].values())
    check(merged == split, f"merged {merged} != sum-of-targets {split}")
    report = load_json(os.path.join(d, "ci_fleet_obs.json"))
    check(report["collector_rounds"] > 0, f"collector_rounds: {report}")
    check(report["collector_targets_up"] == 3,
          f"collector_targets_up: {report}")
    # 3 first-scrape transitions + up->down + down->up from the kill.
    check(report["collector_up_transitions"] >= 5,
          f"collector_up_transitions: {report}")
    check(report["collector_slo_fires"] >= 1, f"collector_slo_fires: {report}")
    check(report["collector_slo_clears"] >= 1,
          f"collector_slo_clears: {report}")
    check(report["fleet_collected_rps"] > 0, f"fleet_collected_rps: {report}")
    lines = load_jsonl(os.path.join(d, "ci_fleet_runlog.jsonl"))
    events = {l["event"] for l in lines}
    check("slo_burn" in events and "slo_clear" in events,
          f"run-log events {events}")
    burns = [l for l in lines if l["event"] == "slo_burn"]
    check(any(b["rule"] == "latency_p99" for b in burns),
          f"no latency_p99 slo_burn: {burns}")
    return (f"fleet obs OK: merged count {merged} == sum of targets, "
            f"{report['collector_rounds']} rounds, "
            f"{len(burns)} slo_burn events")


def tracing(d):
    events = load_json(os.path.join(d, "merged_trace.json"))["traceEvents"]
    flows = collections.defaultdict(collections.Counter)
    for e in events:
        if e.get("cat") == "wm.flow":
            flows[e["id"]][e["ph"]] += 1
    check(flows, "merged trace has no flow events")
    linked = sum(1 for phases in flows.values()
                 if phases["s"] == 1 and phases["f"] == 1 and phases["t"] >= 1)
    check(linked > 0, f"no fully linked flow chains in {dict(flows)}")
    spans = collections.defaultdict(set)
    for e in events:
        if e.get("ph") == "X" and "trace_id" in e.get("args", {}):
            spans[e["args"]["trace_id"]].add(e["name"])
    multi_role = [t for t, names in spans.items()
                  if {"client.call", "server.request"} <= names]
    check(multi_role, "no trace id spans both client and server: "
          f"{ {t: sorted(n) for t, n in spans.items()} }")
    slow = load_jsonl(os.path.join(d, "slow.jsonl"))
    check(slow, "slow-request log is empty")
    for l in slow:
        check(l["event"] == "slow_request", f"not a slow_request: {l}")
        for key in ("trace_id", "e2e_us", "queue_us", "batch_us",
                    "compute_us", "server_total_us", "abstained"):
            check(key in l, f"slow_request exemplar missing {key}: {l}")
    return (f"tracing OK: {len(flows)} flow chains ({linked} fully linked), "
            f"{len(multi_role)} multi-role traces, "
            f"{len(slow)} slow-request exemplars")


SUBCOMMANDS = {"observability": observability, "monitoring": monitoring,
               "adaptation": adaptation, "quant": quant,
               "fleet-obs": fleet_obs, "tracing": tracing}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("command", choices=SUBCOMMANDS)
    parser.add_argument("--dir", default=".",
                        help="directory holding the artifacts")
    a = parser.parse_args(argv)
    try:
        print(SUBCOMMANDS[a.command](a.dir))
    except (CheckFailed, OSError, KeyError, ValueError) as e:
        print(f"{a.command}: FAILED: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

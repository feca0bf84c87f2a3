//! The client subcommands: everything said to a daemon goes through the
//! typed [`FarmClient`].

use super::render::{render_trace_tree, top_frame, NodeHistory};
use super::{config_error, exit_for, pipeline_error, Matches};
use lp_farm_proto::{FarmClient, JobSpec, JobStatus, ProtoError, SubmitOutcome};
use lp_obs::json::Value;
use std::collections::HashMap;
use std::fmt::Display;
use std::io::{IsTerminal, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn connect(m: &Matches) -> FarmClient {
    FarmClient::connect(m.get::<String>("--farm"))
}

/// The shared tail of every fetch-and-show command: print the body, or
/// fail with what the daemon (or the transport) said.
fn print_or_fail<T: Display, E: Display>(what: &str, result: Result<T, E>) -> ExitCode {
    match result {
        Ok(body) => {
            println!("{}", body.to_string().trim_end());
            ExitCode::SUCCESS
        }
        Err(e) => pipeline_error(&format!("{what}: {e}")),
    }
}

/// One [`JobSpec`] per `-p` program, every other field from the flags.
fn job_specs(m: &Matches) -> Vec<JobSpec> {
    let programs: String = m.get("--program");
    let spec_for = |program: &str| JobSpec {
        program: program.trim().to_string(),
        ncores: m.get("--ncores"),
        input: m.get("--input-class"),
        wait_policy: m.get("--wait-policy"),
        slice_base: m.get("--slice-base"),
        max_steps: m.get("--max-steps"),
        priority: m.get("--priority"),
        timeout_ms: m.get("--timeout-ms"),
        mode: if m.on("--live") { "live" } else { "pipeline" }.to_string(),
    };
    programs.split(',').map(spec_for).collect()
}

/// Polls job `id` until it is terminal. With `on_partial`, every streamed
/// partial-result line is handed over once, in order; without, the polls
/// skip the partials and only pay for the record.
fn await_job(
    client: &mut FarmClient,
    id: u64,
    mut on_partial: Option<&mut dyn FnMut(&Value)>,
) -> Result<JobStatus, ProtoError> {
    let mut since = if on_partial.is_some() { 0 } else { usize::MAX };
    loop {
        let (partials, status) = client.job_stream(id, since)?;
        if let Some(show) = on_partial.as_mut() {
            partials.iter().for_each(show);
            since += partials.len();
        }
        if status.is_terminal() {
            return Ok(status);
        }
        std::thread::sleep(Duration::from_millis(200));
    }
}

/// Prints a terminal job's record; whether the job succeeded.
fn report_terminal(id: u64, awaited: Result<JobStatus, ProtoError>) -> bool {
    match awaited {
        Ok(status) => {
            println!("{}", status.record);
            status.state == "done"
        }
        Err(e) => {
            eprintln!("error: job {id}: {e}");
            false
        }
    }
}

/// `run-looppoint submit`: POST jobs, optionally poll to completion.
pub fn submit(m: &Matches) -> ExitCode {
    // One version-negotiated keep-alive connection for the submit AND
    // every poll below: dozens of round trips, one TCP handshake.
    let mut client = connect(m);
    let (status, outcomes) = match client.submit(&job_specs(m), None) {
        Ok(r) => r,
        Err(e) => return pipeline_error(&format!("submitting: {e}")),
    };
    for outcome in &outcomes {
        println!("{}", outcome.to_value());
    }
    match status {
        202 => {}
        400 => return config_error("farm rejected the job spec (see response above)"),
        _ => return pipeline_error("farm is overloaded or draining (see retry_after_ms above)"),
    }
    if !m.on("--wait") {
        return ExitCode::SUCCESS;
    }
    // A forwarded submission's record lives on the owner node, so its
    // polls follow `forwarded_to`.
    let mut owners: HashMap<&str, FarmClient> = HashMap::new();
    let mut ok = true;
    for outcome in &outcomes {
        let SubmitOutcome::Accepted {
            id, forwarded_to, ..
        } = outcome
        else {
            continue;
        };
        let poller = match forwarded_to {
            Some(owner) => owners
                .entry(owner)
                .or_insert_with(|| FarmClient::connect(owner.as_str())),
            None => &mut client,
        };
        ok &= report_terminal(*id, await_job(poller, *id, None));
    }
    exit_for(ok)
}

/// `run-looppoint farm-load`: concurrent keep-alive burst against one
/// farm — `--clients` threads each hold one persistent connection and
/// push their share of `--jobs` submissions, half as a single NDJSON
/// batch POST and half as individual POSTs, then the main thread polls
/// /queue until the farm drains. Prints one parseable summary line and
/// exits non-zero on any dropped request or a failed drain, so ci can
/// gate on it directly.
pub fn farm_load(m: &Matches) -> ExitCode {
    let (clients, jobs): (usize, usize) = (m.get("--clients"), m.get("--jobs"));
    let specs = job_specs(m);
    // Deal jobs round-robin so every client gets within one of an even
    // share, cycling programs across the whole burst.
    let mut shares: Vec<Vec<JobSpec>> = vec![Vec::new(); clients];
    for i in 0..jobs {
        shares[i % clients].push(specs[i % specs.len()].clone());
    }
    let started = Instant::now();
    let threads: Vec<_> = shares
        .into_iter()
        .map(|share| {
            let mut client = connect(m);
            std::thread::spawn(move || {
                let (mut accepted, mut dropped) = (0usize, 0usize);
                let (batch, singles) = share.split_at(share.len() / 2);
                let mut post = |specs: &[JobSpec]| match client.submit(specs, None) {
                    Ok((_, outcomes)) => {
                        let ids = outcomes.iter().filter(|o| o.id().is_some()).count();
                        accepted += ids;
                        dropped += outcomes.len() - ids;
                    }
                    Err(_) => dropped += specs.len(),
                };
                if !batch.is_empty() {
                    post(batch);
                }
                singles.chunks(1).for_each(&mut post);
                let reuses = client.reuses();
                (accepted, dropped, batch.len(), singles.len(), reuses)
            })
        })
        .collect();
    let (mut accepted, mut dropped, mut batch, mut single, mut reuses) = (0, 0, 0, 0, 0u64);
    for t in threads {
        let (a, d, b, s, r) = t.join().expect("load client panicked");
        accepted += a;
        dropped += d;
        batch += b;
        single += s;
        reuses += r;
    }
    // Drain: the farm is healthy when the whole burst reaches a terminal
    // state. Cached/deduped submissions settle instantly; cold ones take
    // one pipeline run each.
    let mut poll = connect(m);
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut drained = false;
    while !drained && Instant::now() < deadline {
        drained = poll.queue().is_ok_and(|q| {
            let count = |key: &str| q.get(key).and_then(Value::as_u64);
            count("queued") == Some(0) && count("running") == Some(0)
        });
        if !drained {
            std::thread::sleep(Duration::from_millis(100));
        }
    }
    reuses += poll.reuses();
    println!(
        "farm-load: jobs={jobs} accepted={accepted} dropped={dropped} batch={batch} \
         single={single} reuses={reuses} drained={drained} elapsed_ms={}",
        started.elapsed().as_millis()
    );
    if dropped == 0 && accepted == jobs && drained {
        ExitCode::SUCCESS
    } else {
        pipeline_error("farm-load burst was not fully accepted and drained")
    }
}

/// `run-looppoint status`: the queue snapshot, or one job's record; with
/// `--follow` the job's streamed `LiveProgress` lines redraw a single
/// terminal line (carriage return, no newline) until the job is terminal
/// — a plain wait for jobs that stream nothing, e.g. pipeline mode.
/// Lines that are not progress documents print verbatim. Following exits
/// 0 on `done`, 1 on any other terminal state.
pub fn status(m: &Matches) -> ExitCode {
    let mut client = connect(m);
    let Some(id) = m.opt::<u64>("--job") else {
        if m.on("--follow") {
            return config_error("--follow needs --job <id>");
        }
        return print_or_fail("querying the queue", client.queue());
    };
    if !m.on("--follow") {
        let record = client.job(id).map(|status| status.record);
        return print_or_fail(&format!("job {id}"), record);
    }
    let mut in_place = false;
    let mut show = |line: &Value| match looppoint::LiveProgress::from_value(line) {
        Some(p) => {
            print!("\r{}", p.render());
            let _ = std::io::stdout().flush();
            in_place = true;
        }
        None => {
            if std::mem::take(&mut in_place) {
                println!();
            }
            println!("{line}");
        }
    };
    let awaited = await_job(&mut client, id, Some(&mut show));
    if in_place {
        println!();
    }
    exit_for(report_terminal(id, awaited))
}

/// `run-looppoint trace`: pretty-print a span tree with per-hop
/// latencies. A job id fetches `GET /jobs/{id}/trace` (any cluster member
/// answers — non-owners proxy to the id's home node); a 32-hex trace id
/// fetches the merged cross-node `GET /cluster/trace/{id}`.
pub fn trace(m: &Matches) -> ExitCode {
    let positional: Option<String> = m.opt("<job-id|trace-id>");
    let Some(target) = positional.or(m.opt("--job")) else {
        return config_error(
            "trace needs a job id or 32-hex trace id: run-looppoint trace <id> --farm <addr>",
        );
    };
    let target = target.to_lowercase();
    let mut client = connect(m);
    let (title, doc) = match target.parse::<u64>() {
        Ok(id) => (format!("job {id}"), client.trace_document(id)),
        Err(_) => (format!("trace {target}"), client.cluster_trace(&target)),
    };
    let tree = doc
        .map_err(|e| e.to_string())
        .and_then(|doc| render_trace_tree(&title, &doc));
    print_or_fail(&format!("trace for {title}"), tree)
}

/// `run-looppoint shutdown`: POST /shutdown?mode=...
pub fn shutdown(m: &Matches) -> ExitCode {
    let ack = connect(m).shutdown(&m.get::<String>("--mode"));
    print_or_fail("requesting shutdown", ack)
}

fn federation_of_one(addr: &str, metrics: Value) -> Value {
    let node = [("node", addr.into()), ("metrics", metrics)];
    let node = Value::Obj(node.map(|(k, v)| (k.to_string(), v)).into());
    Value::Obj(vec![("nodes".to_string(), Value::Arr(vec![node]))])
}

/// `run-looppoint top`: a polling ASCII dashboard over the cluster's
/// federated metrics (`GET /cluster/metrics`) and each node's
/// time-series history (`GET /metrics/history?since=`, pulled over one
/// keep-alive connection per node, resuming from the last sample seen).
/// Refreshes in place on a TTY until Ctrl-C (or for `--iterations`
/// frames).
pub fn top(m: &Matches) -> ExitCode {
    let addr: String = m.get("--farm");
    let interval = Duration::from_millis(m.get("--interval-ms"));
    let iterations: u64 = m.get("--iterations");
    let is_tty = std::io::stdout().is_terminal();
    let mut entry = connect(m);
    let mut clients: HashMap<String, FarmClient> = HashMap::new();
    let mut history: HashMap<String, NodeHistory> = HashMap::new();
    for frame in 1.. {
        // A plain (non-cluster) farm 404s the cluster route: present its
        // own snapshot as a federation of one.
        let federated = match entry.cluster_metrics() {
            Ok(doc) => Ok(doc),
            Err(_) => entry
                .metrics_json()
                .map(|doc| federation_of_one(&addr, doc)),
        };
        let federated = match federated {
            Ok(doc) => doc,
            Err(e) => return pipeline_error(&format!("polling {addr}: {e}")),
        };
        let nodes = federated.get("nodes").and_then(Value::as_arr);
        for node in nodes
            .into_iter()
            .flatten()
            .filter_map(|n| n.get("node")?.as_str())
        {
            let client = clients
                .entry(node.to_string())
                .or_insert_with(|| FarmClient::connect(node));
            let seen = history.entry(node.to_string()).or_default();
            // An unreachable node keeps its last state.
            if let Ok(ndjson) = client.metrics_history(seen.since) {
                seen.absorb(&ndjson);
            }
        }
        let out = top_frame(&addr, frame, &federated, &history);
        if is_tty {
            // Clear + home, then the frame: flicker-free in-place refresh.
            print!("\x1b[2J\x1b[H{out}");
            let _ = std::io::stdout().flush();
        } else {
            println!("{out}");
        }
        if iterations > 0 && frame >= iterations {
            break;
        }
        std::thread::sleep(interval);
    }
    ExitCode::SUCCESS
}

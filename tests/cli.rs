//! The front door, tested from outside: the flag table and parser, the
//! generated help, and the pure renderers behind `trace` and `top`.

use looppoint_repro::cli::flags::{Flag, Rule};
use looppoint_repro::cli::render::{render_trace_tree, sparkline, top_frame, NodeHistory};
use looppoint_repro::cli::{help, parse, Command, Invocation, Matches, COMMANDS};
use lp_obs::json::parse as json;
use std::collections::HashMap;

fn argv(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

fn matches(line: &str) -> Matches {
    match parse(&argv(line)) {
        Ok(Invocation::Run(m)) => m,
        Ok(Invocation::Help(_)) => panic!("`{line}` asked for help"),
        Err(e) => panic!("`{line}` must parse: {e}"),
    }
}

fn rejects(line: &str) -> String {
    match parse(&argv(line)) {
        Err(e) => e,
        Ok(_) => panic!("`{line}` must be a usage error"),
    }
}

/// A command line for `command` carrying whatever it requires.
fn line_for(command: &Command, extra: &str) -> String {
    let required = command.flags().filter(|f| f.required);
    let required: Vec<String> = required.map(|f| format!("{} x", f.name())).collect();
    format!("{} {} {extra}", command.name, required.join(" "))
}

/// A value `flag`'s rule accepts that differs from its default.
fn sample_value(flag: &Flag) -> &'static str {
    match (flag.name(), flag.rule) {
        (_, Rule::Switch) => "",
        ("--input-class", _) => "train",
        ("--wait-policy", _) => "active",
        ("--log-level", _) => "debug",
        ("--cluster-peer", _) => "127.0.0.1:7=/tmp/peer",
        (_, Rule::Choice(words)) => words[words.len() - 1],
        (_, Rule::Text) => "some-text",
        (_, Rule::Positive | Rule::Parsed(_)) => "7",
    }
}

#[test]
fn every_flag_of_every_command_parses_to_its_default_and_to_a_given_value() {
    for command in &COMMANDS {
        let absent = matches(&line_for(command, ""));
        for flag in command.flags() {
            let name = flag.name();
            let given = matches(&line_for(
                command,
                &format!("{name} {}", sample_value(flag)),
            ));
            if matches!(flag.rule, Rule::Switch) {
                assert!(!absent.on(name) || flag.required, "{name} defaults to off");
                assert!(given.on(name), "{name} switches on");
                continue;
            }
            if flag.required {
                assert_eq!(given.all(name), ["x", sample_value(flag)]);
                continue;
            }
            let default = command.default_of(flag);
            let expect = (!default.is_empty()).then(|| default.to_string());
            assert_eq!(
                absent.opt::<String>(name),
                expect,
                "{} {name}",
                command.name
            );
            let value = Some(sample_value(flag).to_string());
            assert_eq!(given.opt::<String>(name), value, "{} {name}", command.name);
            for alias in flag.names() {
                let spelled = matches(&line_for(
                    command,
                    &format!("{alias} {}", sample_value(flag)),
                ));
                assert_eq!(spelled.opt::<String>(name), value, "{alias} is {name}");
            }
        }
    }
    // The documented per-command difference: thread count 8 one-shot, 2 as a job.
    assert_eq!(matches("").get::<usize>("--ncores"), 8);
    assert_eq!(matches("live").get::<usize>("--ncores"), 8);
    assert_eq!(matches("submit --farm a").get::<usize>("--ncores"), 2);
    assert_eq!(matches("farm-load --farm a").get::<usize>("--ncores"), 2);
}

#[test]
fn serve_defaults_are_the_config_defaults() {
    let m = matches("serve");
    let farm = lp_farm::FarmConfig::default();
    assert_eq!(m.get::<usize>("--workers"), farm.workers);
    assert_eq!(m.get::<usize>("--queue-capacity"), farm.queue_capacity);
    assert_eq!(m.get::<u32>("--max-attempts"), farm.max_attempts);
    assert_eq!(m.get::<u64>("--job-timeout-ms"), farm.default_timeout_ms);
    assert_eq!(m.get::<u64>("--journal-flush-ms"), farm.journal_flush_ms);
    assert_eq!(
        m.get::<u64>("--journal-compact-factor"),
        farm.journal_compact_factor
    );
    assert_eq!(m.get::<usize>("--trace-capacity"), farm.trace_capacity);
    assert_eq!(
        m.get::<u64>("--history-interval-ms"),
        farm.history_interval_ms
    );
    assert_eq!(m.get::<usize>("--history-capacity"), farm.history_capacity);
    let ring = lp_cluster::ClusterConfig::default();
    assert_eq!(m.get::<usize>("--vnodes"), ring.vnodes);
    assert_eq!(m.get::<u64>("--heartbeat-ms"), ring.heartbeat_ms);
    assert_eq!(m.get::<u32>("--failure-threshold"), ring.failure_threshold);
    assert_eq!(m.get::<u64>("--rpc-timeout-ms"), ring.rpc_timeout_ms);
    let job = lp_farm_proto::JobSpec::default();
    let m = matches("submit --farm a");
    assert_eq!(m.get::<String>("--program"), job.program);
    assert_eq!(m.get::<usize>("--ncores"), job.ncores);
    assert_eq!(m.get::<String>("--input-class"), job.input);
    assert_eq!(m.get::<String>("--wait-policy"), job.wait_policy);
    assert_eq!(m.get::<u64>("--slice-base"), job.slice_base);
    assert_eq!(m.get::<u64>("--max-steps"), job.max_steps);
    assert_eq!(m.get::<i64>("--priority"), job.priority);
    assert_eq!(m.get::<u64>("--timeout-ms"), job.timeout_ms);
}

#[test]
fn a_range_rule_holds_in_every_command_that_accepts_its_flag() {
    let mut checked = Vec::new();
    for command in &COMMANDS {
        for flag in command.flags().filter(|f| matches!(f.rule, Rule::Positive)) {
            let line = line_for(command, &format!("{} 0", flag.name()));
            assert!(rejects(&line).contains("must be positive"), "{line}");
            checked.push((command.name, flag.name()));
        }
    }
    // `--max-steps 0` and `--store-max-bytes 0` used to be errors one-shot
    // but accepted by `submit` / `serve`.
    for pair in [
        ("", "--max-steps"),
        ("live", "--max-steps"),
        ("submit", "--max-steps"),
        ("farm-load", "--max-steps"),
        ("", "--store-max-bytes"),
        ("serve", "--store-max-bytes"),
        ("", "--flush-interval-ms"),
        ("serve", "--workers"),
        ("serve", "--vnodes"),
        ("farm-load", "--clients"),
        ("farm-load", "--jobs"),
        ("top", "--interval-ms"),
    ] {
        assert!(
            checked.contains(&pair),
            "{pair:?} must be a positive-only flag"
        );
    }
}

#[test]
fn usage_errors() {
    for line in [
        "--no-such-flag",
        "serve --no-such-flag",
        "-n",                           // missing value
        "submit --farm",                // missing value
        "-n many",                      // not a number
        "submit --farm a --priority x", // not an integer
        "-i huge",
        "-w spin",
        "submit --farm a -i huge", // the same rule on the client side
        "--log-level loud",
        "serve --cluster-peer =/tmp/dir",
        "live --pool-size 2", // another command's group
        "live --store-dir /tmp/s",
        "shutdown --farm a --jobs 3",
        "status --farm a --wait",
        "submit --farm a --follow",
        "top --farm a --job 1",
        "shutdown --farm a --mode sideways",
        "trace 12x --farm a", // neither a job id nor 32 hex digits
        "trace 7 8 --farm a", // one positional only
        "status 7 --farm a",  // no positional at all
        "status",             // --farm is required
        "trace 7",
    ] {
        rejects(line);
    }
    assert!(rejects("submit").contains("--farm <addr> is required"));
}

#[test]
fn cluster_peer_repeats_and_scalars_take_the_last_value() {
    let m = matches("serve --node-addr a:1 --cluster-peer b:2=/tmp/b --workers 3 --cluster-peer c:3 --workers 5");
    assert_eq!(m.all("--cluster-peer"), ["b:2=/tmp/b", "c:3"]);
    assert_eq!(m.get::<usize>("--workers"), 5);
}

#[test]
fn trace_targets() {
    let hex = "0123456789abcdef0123456789ABCDEF";
    let target = |line: &str| matches(line).opt::<String>("<job-id|trace-id>");
    assert_eq!(target("trace 7 --farm a").as_deref(), Some("7"));
    assert_eq!(target("trace --farm a 7").as_deref(), Some("7"));
    assert_eq!(
        target(&format!("trace {hex} --farm a")).as_deref(),
        Some(hex)
    );
    let by_flag = matches("trace --job 7 --farm a");
    assert_eq!(by_flag.opt::<String>("<job-id|trace-id>"), None);
    assert_eq!(by_flag.opt::<u64>("--job"), Some(7));
}

#[test]
fn help_is_generated_and_complete() {
    let top_level = help(&COMMANDS[0]);
    for command in &COMMANDS {
        assert!(
            top_level.contains(&format!("    {}", command.name)),
            "{}",
            command.name
        );
        let page = help(command);
        for flag in command.flags() {
            assert!(
                page.contains(flag.spec),
                "{} --help lacks {}",
                command.name,
                flag.spec
            );
            let default = command.default_of(flag);
            if !default.is_empty() {
                let shown = format!("[default: {default}]").replace(' ', "");
                let squeezed: String = page.split_whitespace().collect();
                assert!(squeezed.contains(&shown), "{} {}", command.name, flag.spec);
            }
        }
        for asked in ["-h", "--help"] {
            match parse(&argv(&format!("{} --no-such {asked}", command.name))) {
                Err(_) => {} // the unknown flag comes first
                Ok(_) => panic!("flags are checked in order"),
            }
            match parse(&argv(&format!("{} {asked} --no-such", command.name))) {
                Ok(Invocation::Help(text)) => assert_eq!(text, page),
                _ => panic!("{} {asked} must return the help page", command.name),
            }
        }
    }
}

/// Doc drift: every `--flag` on a README / EXPERIMENTS line that mentions
/// `run-looppoint` is a flag some command accepts. (Lines about `cargo`
/// or `lp-perf` flags do not mention the driver and are not read.)
#[test]
fn documented_flags_exist() {
    for doc in ["README.md", "EXPERIMENTS.md"] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(doc);
        let text = std::fs::read_to_string(&path).expect("doc is in the repo");
        for line in text.lines().filter(|l| l.contains("run-looppoint")) {
            for word in line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                if word.starts_with("--") && word.len() > 2 {
                    let known = COMMANDS.iter().any(|c| c.flag(word).is_some());
                    assert!(known || word == "--help", "{doc} mentions {word}: {line}");
                }
            }
        }
    }
}

#[test]
fn sparkline_golden() {
    assert_eq!(sparkline(&[], 4), "    ");
    assert_eq!(sparkline(&[0.0, 0.0], 4), "    ");
    assert_eq!(
        sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], 9),
        " .:-=+*#@"
    );
    assert_eq!(
        sparkline(&[8.0, 0.0, 4.0, 8.0], 3),
        " =@",
        "keeps the newest samples"
    );
}

const TRACE_DOC: &str = r#"{"traceEvents":[
 {"ph":"M","name":"process_name","pid":1,"args":{"name":"node a"}},
 {"ph":"X","name":"farm.job","ts":1000,"dur":9000,"args":{"span_id":"s1","parent_span_id":""}},
 {"ph":"X","name":"farm.execute","ts":3000,"dur":5000,"args":{"span_id":"s2","parent_span_id":"s1"}},
 {"ph":"X","name":"job.run","ts":3500,"dur":4000,"args":{"span_id":"s3","parent_span_id":"s2"}},
 {"ph":"i","name":"enqueue","ts":1200,"args":{"span_id":"s1","detail":"priority 0"}},
 {"ph":"i","name":"farm.job.dedup_of","ts":2000,"args":{"parent_span_id":"s1","primary":4,"primary_trace_id":"abcd"}},
 {"ph":"X","name":"farm.job.queue_wait","ts":1000,"dur":2000,"args":{"span_id":"s4","parent_span_id":"s1"}}
]}"#;

#[test]
fn trace_tree_golden() {
    let tree = render_trace_tree("job 7", &json(TRACE_DOC).unwrap()).unwrap();
    let expected = "\
trace for job 7 (6 events)
farm.job                       +0.000 ms  9.000 ms
  farm.job.queue_wait            +0.000 ms  2.000 ms
  @ enqueue                      +0.200 ms  (priority 0)
  @ farm.job.dedup_of            +1.000 ms  (primary job 4 trace abcd)
  farm.execute                   +2.000 ms  5.000 ms
    job.run                        +2.500 ms  4.000 ms
";
    assert_eq!(tree, expected);
    let empty = json(r#"{"traceEvents":[{"ph":"M","name":"process_name"}]}"#).unwrap();
    assert_eq!(
        render_trace_tree("job 7", &empty),
        Err("trace has no events".to_string())
    );
    assert!(render_trace_tree("job 7", &json("{}").unwrap()).is_err());
}

#[test]
fn top_frame_golden() {
    let federated = json(
        r#"{"nodes":[
 {"node":"127.0.0.1:7001","ordinal":0,"metrics":{
   "counters":{"farm.submitted":8,"farm.done":6,"farm.dedup.hits":2},
   "gauges":{"farm.queue.depth":1,"farm.running":1}}},
 {"node":"127.0.0.1:7002","ordinal":1,"metrics":{
   "counters":{"farm.submitted":4,"farm.done":4,"farm.dedup.hits":3},
   "gauges":{"farm.queue.depth":0,"farm.running":0}}}],
 "errors":[{"node":"127.0.0.1:7003","error":"refused"}]}"#,
    )
    .unwrap();
    let mut history: HashMap<String, NodeHistory> = HashMap::new();
    let first = history.entry("127.0.0.1:7001".to_string()).or_default();
    first.absorb(
        "{\"seq\":1,\"values\":{\"farm.done.rate\":1.0}}\nnot json\n\
         {\"seq\":2,\"values\":{\"farm.done.rate\":4.0,\"farm.queue.wait_us.p50\":1500,\"farm.queue.wait_us.p99\":12000}}\n",
    );
    assert_eq!(
        first.since, 2,
        "the next poll resumes after the newest sample"
    );
    let frame = top_frame("127.0.0.1:7001", 3, &federated, &history);
    let expected = "\
lp-farm top — 2 nodes via 127.0.0.1:7001 — frame 3 — 1 unreachable
cluster: 12 submitted, 10 done, 1 queued, 1 running

NODE                  ORD  JOBS/S QUEUE  RUN DEDUP%    P50MS    P99MS  JOBS/S HISTORY
127.0.0.1:7001          0     4.0     1    1   25.0     1.50    12.00                        :@
127.0.0.1:7002          1     0.0     0    0   75.0     0.00     0.00
";
    let trimmed: Vec<&str> = frame.lines().map(str::trim_end).collect();
    assert_eq!(trimmed, expected.lines().collect::<Vec<_>>());
    let alone = json(r#"{"nodes":[{"node":"a:1","metrics":{}}]}"#).unwrap();
    let frame = top_frame("a:1", 1, &alone, &HashMap::new());
    assert!(
        frame.starts_with("lp-farm top — 1 node via a:1 — frame 1\n"),
        "{frame}"
    );
}

//! `robopt-cli`: the `robopt` command-line tool.
//!
//! One binary, five subcommands, all speaking the `robopt` service API:
//!
//! * `robopt serve [--tcp PORT]` — the optimizer daemon: one JSON request
//!   per line (stdin by default, a localhost TCP socket with `--tcp`), one
//!   JSON response per line, until `{"op":"quit"}` or EOF;
//! * `robopt optimize|simulate|compare` — one-shot verbs taking the
//!   workload from flags, printing the response line to stdout;
//! * `robopt train` — trains a forest, installs it, and (with
//!   `--model-out`) persists it as bit-exact JSON for later `--model` use.
//!
//! Everything is offline and dependency-free: flag parsing is hand-rolled,
//! the wire format is the hand-rendered JSON from `robopt::wire`, and the
//! TCP mode binds loopback only.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

use std::io::{BufRead, BufReader, Write};

use robopt::{
    parse_request, render_response, BackendChoice, CompareRequest, ExecuteRequest, ExecutionPolicy,
    OptimizeRequest, Optimizer, Request, Response, RiskPolicy, ServiceError, SimulateRequest,
    TrainRequest, TrainSource, WorkloadParams, WorkloadSpec,
};

/// Successful run.
pub const EXIT_OK: i32 = 0;
/// A well-formed request that the service answered with an error.
pub const EXIT_REQUEST_FAILED: i32 = 1;
/// Unusable command line (unknown subcommand, bad flag, missing value).
pub const EXIT_USAGE: i32 = 2;

/// Entry point: dispatch `args` (without the program name) and return the
/// process exit code.
pub fn run(args: Vec<String>) -> i32 {
    let mut args = args.into_iter();
    let Some(cmd) = args.next() else {
        eprintln!("{USAGE}");
        return EXIT_USAGE;
    };
    let rest: Vec<String> = args.collect();
    match cmd.as_str() {
        "serve" => cmd_serve(&rest),
        "optimize" => cmd_one_shot(&rest, Verb::Optimize),
        "simulate" => cmd_one_shot(&rest, Verb::Simulate),
        "execute" => cmd_one_shot(&rest, Verb::Execute),
        "compare" => cmd_one_shot(&rest, Verb::Compare),
        "train" => cmd_train(&rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            EXIT_OK
        }
        other => {
            eprintln!("unknown subcommand {other:?}\n{USAGE}");
            EXIT_USAGE
        }
    }
}

const USAGE: &str = "robopt — optimizer-as-a-service for cross-platform query plans

USAGE:
  robopt serve [--tcp PORT] [--cache-capacity N] [--no-cache] [--model FILE]
               [--risk POLICY]
      Line-delimited JSON request loop ({\"op\":\"optimize\"|\"train\"|
      \"simulate\"|\"compare\"|\"stats\"|\"quit\"}) over stdin or a
      loopback TCP socket. --risk sets the session default policy for
      optimize requests that don't carry their own.

  robopt optimize [workload flags] [--workers N] [--split-parts N]
                  [--no-prune] [--model FILE] [--risk POLICY]
  robopt simulate [workload flags] [--seed N] [--noise X] [--model FILE]
  robopt execute  [workload flags] [--backend engine|simulator]
                  [--engine-workers N] [--assign p1,p2,...] [--seed N]
                  [--noise X] [--model FILE]
      Actually run the workload (engine: measured runtimes, real output
      rows and digest; simulator: modeled). Empty --assign optimizes
      first and executes the winner.
  robopt compare  [workload flags] [--workers N] [--sim-seed N] [--model FILE]
  robopt train    [--rows N] [--trees N] [--seed N] [--source simulator|tdgen]
                  [--forest-seed N] [--model-out FILE]

WORKLOAD FLAGS:
  --workload wordcount|tpch_q3|pipeline|random_dag|pagerank|kmeans
                 (default wordcount)
  --scale X      input tuples (default: wordcount 1e7, tpch_q3 1e6,
                 pipeline/pagerank/kmeans 1e5)
  --ops N        operator count for pipeline/random_dag (default 16)
  --dag-seed N   random_dag shape seed (default 1)
  --density X    random_dag extra-edge probability (default 0.3)
  --iterations N loop trips for pagerank/kmeans (default 10)

RISK POLICIES (--risk):
  expected       rank plans by mean predicted cost (default)
  sigma<k>       mean + k standard deviations, e.g. sigma1.5
  q<q>           cost quantile, q in (0,1), e.g. q0.9";

/// One-shot verbs sharing the workload/policy flag surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    Optimize,
    Simulate,
    Execute,
    Compare,
}

/// Parsed flag list: `--key value` pairs plus boolean `--key` switches.
#[derive(Debug, Default)]
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

/// Flags that take no value; everything else expects `--flag VALUE`.
const SWITCHES: &[&str] = &["--no-cache", "--no-prune", "--no-clamp"];

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            return Err(format!("unexpected argument {arg:?}"));
        }
        if SWITCHES.contains(&arg.as_str()) {
            flags.switches.push(arg.clone());
            continue;
        }
        let Some(value) = it.next() else {
            return Err(format!("flag {arg} expects a value"));
        };
        flags.pairs.push((arg.clone(), value.clone()));
    }
    Ok(flags)
}

impl Flags {
    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    fn parse_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| format!("flag {key} has invalid value {raw:?}"))
            })
            .transpose()
    }

    fn parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.parse_opt(key)?.unwrap_or(default))
    }
}

fn workload_from_flags(flags: &Flags) -> Result<WorkloadSpec, String> {
    let params = WorkloadParams {
        scale: flags.parse_opt("--scale")?,
        ops: flags.parse_opt("--ops")?,
        seed: flags.parse_opt("--dag-seed")?,
        density: flags.parse_opt("--density")?,
        iterations: flags.parse_opt("--iterations")?,
    };
    WorkloadSpec::named(flags.get("--workload").unwrap_or("wordcount"), params)
        .map_err(|e| e.to_string())
}

/// `--assign java,spark,...` into per-operator platform names (empty flag
/// or no flag means "optimize first").
fn assignments_from_flags(flags: &Flags) -> Vec<String> {
    flags
        .get("--assign")
        .map(|list| {
            list.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

fn backend_from_flags(flags: &Flags) -> Result<BackendChoice, String> {
    BackendChoice::named(
        flags.get("--backend"),
        flags.parse_opt("--engine-workers")?,
        flags.parse_opt("--seed")?,
        flags.parse_opt("--noise")?,
    )
}

/// `--risk expected|sigma<k>|q<q>` into a policy, `None` when absent.
fn risk_from_flags(flags: &Flags) -> Result<Option<RiskPolicy>, String> {
    flags.get("--risk").map(RiskPolicy::parse).transpose()
}

fn policy_from_flags(flags: &Flags) -> Result<ExecutionPolicy, String> {
    let defaults = ExecutionPolicy::default();
    let mut policy = defaults
        .with_workers(flags.parse("--workers", defaults.workers)?)
        .with_split_parts(flags.parse("--split-parts", defaults.split_parts)?);
    if flags.has("--no-prune") {
        policy = policy.with_prune(false);
    }
    if flags.has("--no-clamp") {
        policy = policy.with_hardware_clamp(false);
    }
    Ok(policy)
}

/// Build the facade, honoring `--model`, `--cache-capacity`, `--no-cache`.
fn optimizer_from_flags(flags: &Flags) -> Result<Optimizer, String> {
    let mut opt = Optimizer::named();
    if let Some(capacity) = flags.get("--cache-capacity") {
        let capacity: usize = capacity
            .parse()
            .map_err(|_| format!("--cache-capacity has invalid value {capacity:?}"))?;
        opt.set_cache_capacity(capacity);
    }
    if flags.has("--no-cache") {
        opt.set_cache_enabled(false);
    }
    if let Some(path) = flags.get("--model") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read model file {path:?}: {e}"))?;
        let forest = robopt::forest_from_json(&text).map_err(|e| e.to_string())?;
        opt.install_forest(forest).map_err(|e| e.to_string())?;
    }
    // Session-wide default; `robopt serve --risk` applies it to every
    // optimize request that doesn't carry its own policy.
    opt.set_default_risk(risk_from_flags(flags)?);
    Ok(opt)
}

fn cmd_one_shot(args: &[String], verb: Verb) -> i32 {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(msg) => return usage_error(&msg),
    };
    let setup = (|| -> Result<(Optimizer, Request), String> {
        let opt = optimizer_from_flags(&flags)?;
        let workload = workload_from_flags(&flags)?;
        let req = match verb {
            Verb::Optimize => {
                let mut oreq =
                    OptimizeRequest::new(workload).with_policy(policy_from_flags(&flags)?);
                if let Some(risk) = risk_from_flags(&flags)? {
                    oreq = oreq.with_risk(risk);
                }
                Request::Optimize(oreq)
            }
            Verb::Simulate => {
                let defaults = SimulateRequest::new(workload);
                Request::Simulate(SimulateRequest {
                    seed: flags.parse("--seed", defaults.seed)?,
                    noise: flags.parse("--noise", defaults.noise)?,
                    ..defaults
                })
            }
            Verb::Execute => Request::Execute(
                ExecuteRequest::new(workload)
                    .with_assignments(assignments_from_flags(&flags))
                    .with_backend(backend_from_flags(&flags)?),
            ),
            Verb::Compare => {
                let defaults = CompareRequest::new(workload);
                Request::Compare(CompareRequest {
                    policy: policy_from_flags(&flags)?,
                    sim_seed: flags.parse("--sim-seed", defaults.sim_seed)?,
                    ..defaults
                })
            }
        };
        Ok((opt, req))
    })();
    let (mut opt, req) = match setup {
        Ok(pair) => pair,
        Err(msg) => return usage_error(&msg),
    };
    let resp = dispatch(&mut opt, &req);
    let failed = matches!(resp, Response::Error(_));
    println!("{}", render_response(&resp));
    if failed {
        EXIT_REQUEST_FAILED
    } else {
        EXIT_OK
    }
}

/// `robopt train` flags over the [`TrainRequest`] defaults.
fn train_request_from_flags(flags: &Flags) -> Result<TrainRequest, String> {
    let defaults = TrainRequest::default();
    Ok(TrainRequest {
        source: TrainSource::named(
            flags.get("--source"),
            flags.parse_opt("--seed")?,
            flags.parse_opt("--noise")?,
        )?,
        rows: flags.parse("--rows", defaults.rows)?,
        n_trees: flags.parse("--trees", defaults.n_trees)?,
        forest_seed: flags.parse("--forest-seed", defaults.forest_seed)?,
    })
}

fn cmd_train(args: &[String]) -> i32 {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(msg) => return usage_error(&msg),
    };
    let req = match train_request_from_flags(&flags) {
        Ok(req) => req,
        Err(msg) => return usage_error(&msg),
    };
    let mut opt = Optimizer::named();
    match opt.train(&req) {
        Ok(resp) => {
            if let Some(path) = flags.get("--model-out") {
                let Some(forest) = opt.forest() else {
                    eprintln!("internal error: train succeeded without a forest");
                    return EXIT_REQUEST_FAILED;
                };
                if let Err(e) = std::fs::write(path, robopt::forest_to_json(forest)) {
                    eprintln!("cannot write model file {path:?}: {e}");
                    return EXIT_REQUEST_FAILED;
                }
            }
            println!("{}", render_response(&Response::Train(resp)));
            EXIT_OK
        }
        Err(e) => {
            println!("{}", render_response(&Response::Error(e)));
            EXIT_REQUEST_FAILED
        }
    }
}

fn cmd_serve(args: &[String]) -> i32 {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(msg) => return usage_error(&msg),
    };
    let mut opt = match optimizer_from_flags(&flags) {
        Ok(opt) => opt,
        Err(msg) => return usage_error(&msg),
    };
    match flags.get("--tcp") {
        None => {
            let stdin = std::io::stdin();
            let mut stdout = std::io::stdout().lock();
            serve_lines(&mut opt, stdin.lock(), &mut stdout);
            EXIT_OK
        }
        Some(port) => {
            let Ok(port) = port.parse::<u16>() else {
                return usage_error(&format!("--tcp has invalid port {port:?}"));
            };
            serve_tcp(&mut opt, port)
        }
    }
}

/// The serve loop: one request line in, one response line out, until
/// `quit` or EOF. Shared by stdin and per-connection TCP serving.
/// Returns `true` if the session ended with an explicit `quit`.
fn serve_lines<R: BufRead, W: Write>(opt: &mut Optimizer, reader: R, writer: &mut W) -> bool {
    for line in reader.lines() {
        let Ok(line) = line else {
            return false;
        };
        if line.trim().is_empty() {
            continue;
        }
        let (mut reply, quit) = match parse_request(&line) {
            Ok(Request::Quit) => (quit_ack(), true),
            Ok(req) => (render_response(&dispatch(opt, &req)), false),
            Err(e) => (render_response(&Response::Error(e)), false),
        };
        // One write per reply: on a raw `TcpStream`, a separate write for
        // the newline sits in Nagle's buffer until the client's delayed ACK.
        reply.push('\n');
        let sent = writer.write_all(reply.as_bytes()).is_ok();
        let _ = writer.flush();
        if quit || !sent {
            return quit;
        }
    }
    false
}

/// Loopback TCP serving: bind, then hand the accept loop to
/// [`serve_on_listener`].
fn serve_tcp(opt: &mut Optimizer, port: u16) -> i32 {
    let listener = match std::net::TcpListener::bind(("127.0.0.1", port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind 127.0.0.1:{port}: {e}");
            return EXIT_REQUEST_FAILED;
        }
    };
    eprintln!("robopt: serving on 127.0.0.1:{port}");
    serve_on_listener(opt, &listener)
}

/// The daemon accept loop over an already-bound listener (public so tests
/// can bind port 0 and drive real reconnects). Connections are handled one
/// at a time — the facade is single-threaded by design, and one shared
/// cache serves every connection. A client that disconnects (EOF, dropped
/// socket, write error) ends only *its* session: the loop goes straight
/// back to `accept`, with the optimizer state (cache, telemetry, trained
/// model) intact for the next client. Only an explicit `quit` stops the
/// server.
pub fn serve_on_listener(opt: &mut Optimizer, listener: &std::net::TcpListener) -> i32 {
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let Ok(read_half) = stream.try_clone() else {
            continue;
        };
        let mut writer = stream;
        let quit = serve_lines(opt, BufReader::new(read_half), &mut writer);
        if quit {
            return EXIT_OK;
        }
    }
    EXIT_OK
}

/// Route one parsed request into the facade.
fn dispatch(opt: &mut Optimizer, req: &Request) -> Response {
    match req {
        Request::Optimize(r) => match opt.optimize(r) {
            Ok(resp) => Response::Optimize(resp),
            Err(e) => Response::Error(e),
        },
        Request::Train(r) => match opt.train(r) {
            Ok(resp) => Response::Train(resp),
            Err(e) => Response::Error(e),
        },
        Request::Simulate(r) => match opt.simulate(r) {
            Ok(resp) => Response::Simulate(resp),
            Err(e) => Response::Error(e),
        },
        Request::Execute(r) => match opt.execute(r) {
            Ok(resp) => Response::Execute(resp),
            Err(e) => Response::Error(e),
        },
        Request::Compare(r) => match opt.compare(r) {
            Ok(resp) => Response::Compare(resp),
            Err(e) => Response::Error(e),
        },
        Request::Stats => Response::Stats(opt.service_stats()),
        Request::Quit => Response::Error(ServiceError::InvalidRequest(
            "quit is handled by the serve loop".to_string(),
        )),
    }
}

fn quit_ack() -> String {
    "{\"ok\":true,\"kind\":\"quit\"}".to_string()
}

fn usage_error(msg: &str) -> i32 {
    eprintln!("robopt: {msg}\n\n{USAGE}");
    EXIT_USAGE
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Write` that records how many `write` calls it saw — what a raw
    /// `TcpStream` turns into one segment each.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn serve_loop_answers_a_scripted_session() {
        let script = concat!(
            r#"{"op":"optimize","workload":{"kind":"wordcount","scale":1e7}}"#,
            "\n",
            r#"{"op":"optimize","workload":{"kind":"wordcount","scale":1e7}}"#,
            "\n",
            r#"{"op":"stats"}"#,
            "\n",
            r#"{"op":"quit"}"#,
            "\n",
        );
        let mut opt = Optimizer::named();
        let mut out = CountingWriter::default();
        let quit = serve_lines(&mut opt, script.as_bytes(), &mut out);
        assert!(quit, "script ends with quit");
        assert_eq!(out.writes, 4, "body and newline must share one write");
        let text = String::from_utf8(out.bytes).expect("utf-8 output");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "one response per request");
        assert!(lines[0].contains("\"ok\":true"));
        assert_eq!(lines[0], lines[1], "cache hit is byte-identical");
        assert!(
            lines[2].contains("\"hits\":1"),
            "stats sees the hit: {}",
            lines[2]
        );
        assert!(lines[3].contains("\"quit\""));
    }

    #[test]
    fn wire_and_cli_agree_on_what_a_bare_train_means() {
        let wire = parse_request(r#"{"op":"train"}"#).expect("bare wire train");
        let cli = train_request_from_flags(&Flags::default()).expect("bare cli train");
        assert_eq!(wire, Request::Train(cli));
        assert_eq!(cli, TrainRequest::default());
    }

    fn flags(args: &[&str]) -> Flags {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_flags(&args).expect("well-formed flags")
    }

    #[test]
    fn wire_and_cli_agree_on_every_bare_workload_and_backend() {
        // An unparameterised workload of every kind, through both doors.
        let kinds = [
            ("wordcount", WorkloadSpec::WordCount { scale: 1e7 }),
            ("tpch_q3", WorkloadSpec::TpchQ3 { scale: 1e6 }),
            (
                "pipeline",
                WorkloadSpec::Pipeline {
                    ops: 16,
                    scale: 1e5,
                },
            ),
            (
                "random_dag",
                WorkloadSpec::RandomDag {
                    seed: 1,
                    ops: 16,
                    density: 0.3,
                },
            ),
            (
                "pagerank",
                WorkloadSpec::PageRank {
                    scale: 1e5,
                    iterations: 10,
                },
            ),
            (
                "kmeans",
                WorkloadSpec::KMeans {
                    scale: 1e5,
                    iterations: 10,
                },
            ),
        ];
        for (kind, expected) in kinds {
            let line = format!(r#"{{"op":"optimize","workload":{{"kind":"{kind}"}}}}"#);
            let wire = parse_request(&line).expect("bare wire workload");
            let cli = workload_from_flags(&flags(&["--workload", kind])).expect("bare cli");
            assert_eq!(wire, Request::Optimize(OptimizeRequest::new(cli)), "{kind}");
            assert_eq!(cli, expected, "{kind}");
        }
        // An explicit parameter still wins over its kind's default.
        let cli = workload_from_flags(&flags(&["--workload", "tpch_q3", "--scale", "1e7"]));
        assert_eq!(cli, Ok(WorkloadSpec::TpchQ3 { scale: 1e7 }));

        // A bare execute on either backend.
        for (name, expected) in [
            (None, BackendChoice::Engine { workers: 2 }),
            (Some("engine"), BackendChoice::default()),
            (
                Some("simulator"),
                BackendChoice::Simulator {
                    seed: 42,
                    noise: 0.0,
                },
            ),
        ] {
            let (field, args) = match name {
                Some(n) => (format!(r#","backend":"{n}""#), vec!["--backend", n]),
                None => (String::new(), vec![]),
            };
            let line = format!(r#"{{"op":"execute","workload":{{"kind":"wordcount"}}{field}}}"#);
            let Request::Execute(wire) = parse_request(&line).expect("bare wire execute") else {
                panic!("execute line parsed as another verb");
            };
            let cli = backend_from_flags(&flags(&args)).expect("bare cli backend");
            assert_eq!(wire.backend, cli, "{name:?}");
            assert_eq!(cli, expected, "{name:?}");
        }
    }

    #[test]
    fn serve_loop_survives_garbage_lines() {
        let script = "this is not json\n{\"op\":\"warp\"}\n{\"op\":\"stats\"}\n";
        let mut opt = Optimizer::named();
        let mut out = Vec::new();
        let quit = serve_lines(&mut opt, script.as_bytes(), &mut out);
        assert!(!quit, "EOF, not quit");
        let text = String::from_utf8(out).expect("utf-8 output");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"ok\":false"));
        assert!(lines[1].contains("\"ok\":false"));
        assert!(lines[2].contains("\"ok\":true"));
    }

    #[test]
    fn serve_loop_answers_an_execute_request() {
        let script = concat!(
            r#"{"op":"execute","workload":{"kind":"wordcount","scale":1e4},"workers":2}"#,
            "\n",
        );
        let mut opt = Optimizer::named();
        let mut out = Vec::new();
        serve_lines(&mut opt, script.as_bytes(), &mut out);
        let text = String::from_utf8(out).expect("utf-8 output");
        assert!(text.contains("\"kind\":\"execute\""), "{text}");
        assert!(text.contains("\"backend\":\"engine\""), "{text}");
        assert!(text.contains("\"measured\":true"), "{text}");
        assert!(text.contains("\"output_digest\":"), "{text}");
    }

    /// Regression test: the TCP daemon must keep serving after a client
    /// disconnects without `quit` — a second client gets a fresh session
    /// against the same optimizer state.
    #[test]
    fn tcp_daemon_accepts_a_second_client_after_the_first_disconnects() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::{TcpListener, TcpStream};

        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind port 0");
        let addr = listener.local_addr().expect("local addr");
        let server = std::thread::spawn(move || {
            let mut opt = Optimizer::named();
            serve_on_listener(&mut opt, &listener)
        });

        // Client 1: one optimize, then drop the socket (no quit).
        {
            let mut c1 = TcpStream::connect(addr).expect("client 1 connect");
            writeln!(
                c1,
                r#"{{"op":"optimize","workload":{{"kind":"wordcount","scale":1e7}}}}"#
            )
            .expect("client 1 write");
            let mut line = String::new();
            BufReader::new(c1.try_clone().expect("clone"))
                .read_line(&mut line)
                .expect("client 1 read");
            assert!(line.contains("\"ok\":true"), "{line}");
        }

        // Client 2: the daemon must still answer, with state carried over
        // (the stats counter shows client 1's request), then quit.
        let mut c2 = TcpStream::connect(addr).expect("client 2 connect");
        let mut reader = BufReader::new(c2.try_clone().expect("clone"));
        writeln!(c2, r#"{{"op":"stats"}}"#).expect("client 2 write stats");
        let mut line = String::new();
        reader.read_line(&mut line).expect("client 2 read stats");
        assert!(line.contains("\"requests\":1"), "{line}");
        writeln!(c2, r#"{{"op":"quit"}}"#).expect("client 2 write quit");
        line.clear();
        reader.read_line(&mut line).expect("client 2 read quit ack");
        assert!(line.contains("\"quit\""), "{line}");

        assert_eq!(server.join().expect("server thread"), EXIT_OK);
    }

    #[test]
    fn risk_flag_parses_policies_and_rejects_garbage() {
        let flags = parse_flags(&["--risk".to_string(), "sigma1.5".to_string()]).expect("flags");
        assert_eq!(
            risk_from_flags(&flags).expect("parse"),
            Some(RiskPolicy::MeanPlusKSigma(1.5))
        );
        assert_eq!(risk_from_flags(&Flags::default()).expect("absent"), None);
        let bad = parse_flags(&["--risk".to_string(), "wild".to_string()]).expect("flags");
        assert!(
            risk_from_flags(&bad).is_err(),
            "unknown policy is a usage error"
        );
        // End to end: the one-shot verb carries the policy onto the wire.
        let script = concat!(
            r#"{"op":"optimize","workload":{"kind":"wordcount","scale":1e6},"risk":"q0.9"}"#,
            "\n",
        );
        let mut opt = Optimizer::named();
        let mut out = Vec::new();
        serve_lines(&mut opt, script.as_bytes(), &mut out);
        let text = String::from_utf8(out).expect("utf-8 output");
        assert!(text.contains("\"risk_policy\":\"q0.9\""), "{text}");
        assert!(text.contains("\"cost_std\":"), "{text}");
    }

    #[test]
    fn flag_parsing_catches_the_usual_mistakes() {
        assert!(
            parse_flags(&["--rows".to_string()]).is_err(),
            "missing value"
        );
        assert!(parse_flags(&["stray".to_string()]).is_err(), "non-flag arg");
        let flags = parse_flags(&[
            "--workload".to_string(),
            "pipeline".to_string(),
            "--ops".to_string(),
            "24".to_string(),
            "--no-cache".to_string(),
        ])
        .expect("valid flags");
        assert!(flags.has("--no-cache"));
        assert_eq!(
            workload_from_flags(&flags).expect("workload"),
            WorkloadSpec::Pipeline {
                ops: 24,
                scale: 1e5
            }
        );
    }
}

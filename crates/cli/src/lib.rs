//! `robopt-cli`: the `robopt` command-line tool.
//!
//! One binary, five subcommands, one way in: every request — a line a
//! `serve` client sent or the flags of a one-shot verb — is decoded by
//! `robopt::parse_request` and answered through the same `dispatch` →
//! `render_response` path.
//!
//! * `robopt serve [--tcp PORT]` — the optimizer daemon: one JSON request
//!   per line (stdin by default, a localhost TCP socket with `--tcp`), one
//!   JSON response per line, until `{"op":"quit"}` or EOF;
//! * `robopt optimize|execute|compare|train` — one-shot verbs: the flags
//!   are translated, row by row of the `FLAGS` table, into the request
//!   line a `serve` client would have sent, and the response line goes to
//!   stdout (`train --model-out` also persists the forest as bit-exact
//!   JSON for later `--model` use).
//!
//! Everything is offline and dependency-free: flag parsing is hand-rolled,
//! request lines are written by the same `robopt::json::Writer` that
//! renders the replies in `robopt::wire`, and the TCP mode binds loopback
//! only.

use std::io::{BufRead, BufReader, Write};

use robopt::json::Writer;
use robopt::{parse_request, render_response, Optimizer, Request, Response, ServiceError};

/// Successful run.
pub const EXIT_OK: i32 = 0;
/// A well-formed request that the service answered with an error.
pub const EXIT_REQUEST_FAILED: i32 = 1;
/// Unusable command line (unknown subcommand or flag, missing or malformed
/// value, a request line `parse_request` rejects).
pub const EXIT_USAGE: i32 = 2;

/// Entry point: dispatch `args` (without the program name) and return the
/// process exit code.
pub fn run(args: Vec<String>) -> i32 {
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return EXIT_USAGE;
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return EXIT_OK;
    }
    if !FLAGS
        .iter()
        .any(|(_, verbs, ..)| verbs.contains(&cmd.as_str()))
    {
        eprintln!("unknown subcommand {cmd:?}\n{USAGE}");
        return EXIT_USAGE;
    }
    let outcome = (|| -> Result<i32, String> {
        let flags = parse_flags(cmd, rest)?;
        let mut opt = optimizer_from_flags(&flags)?;
        if cmd == "serve" {
            return cmd_serve(&mut opt, &flags);
        }
        let req = parse_request(&request_line(cmd, &flags)?).map_err(|e| e.to_string())?;
        let model_out = deployment(&flags, "--model-out");
        Ok(cmd_one_shot(&mut opt, &req, model_out))
    })();
    outcome.unwrap_or_else(|msg| usage_error(&msg))
}

const USAGE: &str = "robopt — optimizer-as-a-service for cross-platform query plans

USAGE:
  robopt serve [--tcp PORT] [--cache-capacity N] [--model FILE]
      Line-delimited JSON request loop ({\"op\":\"optimize\"|\"execute\"|
      \"compare\"|\"train\"|\"stats\"|\"quit\"}) over stdin or a
      loopback TCP socket. An optimize request carries its own risk
      policy (\"risk\", default expected). The plan cache holds 256
      responses; --cache-capacity 0 turns it off.

  robopt optimize [workload flags] [--workers N] [--split-parts N]
                  [--no-prune] [--no-clamp] [--risk POLICY] [--model FILE]
  robopt execute  [workload flags] [--backend engine|simulator]
                  [--engine-workers N] [--assign p1,p2,...] [--seed N]
                  [--noise X] [--model FILE]
      Actually run the workload (engine: measured runtimes, real output
      rows and digest; simulator: modeled, --seed/--noise apply). Empty
      --assign optimizes first and executes the winner.
  robopt compare  [workload flags] [--workers N] [--split-parts N]
                  [--no-prune] [--no-clamp] [--sim-seed N] [--model FILE]
  robopt train    [--rows N] [--trees N] [--source simulator|tdgen]
                  [--seed N] [--noise X] [--forest-seed N] [--model-out FILE]
      One-shot verbs: the flags become the request line a serve client
      would send; a flag the verb does not list is an error.

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

/// How a flag's value becomes JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A number (integers verbatim, so 64-bit seeds survive).
    Num,
    /// A string.
    Str,
    /// `a,b,c` into an array of strings.
    List,
    /// A valueless switch that turns a boolean off.
    Off,
}

/// `(flag, subcommands that accept it, JSON path, value kind)`. The path
/// is where the value lands in the request line (`object.key`, or a
/// top-level `key`); empty marks a deployment setting that shapes the
/// facade or the transport instead and never reaches the wire.
type FlagRow = (&'static str, &'static [&'static str], &'static str, Kind);

/// One flag as given: its table row and raw value (`""` for a switch).
type Flag<'a> = (&'static FlagRow, &'a str);

const WORKLOAD: &[&str] = &["optimize", "execute", "compare"];
const POLICY: &[&str] = &["optimize", "compare"];
const MODEL: &[&str] = &["serve", "optimize", "execute", "compare"];
const WORKLOAD_FLAG: FlagRow = ("--workload", WORKLOAD, "workload.kind", Kind::Str);

/// Every flag of every subcommand — the one table both flag validation
/// ([`parse_flags`]) and line building ([`request_line`]) read.
const FLAGS: &[FlagRow] = &[
    WORKLOAD_FLAG,
    ("--scale", WORKLOAD, "workload.scale", Kind::Num),
    ("--ops", WORKLOAD, "workload.ops", Kind::Num),
    ("--dag-seed", WORKLOAD, "workload.seed", Kind::Num),
    ("--density", WORKLOAD, "workload.density", Kind::Num),
    ("--iterations", WORKLOAD, "workload.iterations", Kind::Num),
    ("--workers", POLICY, "policy.workers", Kind::Num),
    ("--split-parts", POLICY, "policy.split_parts", Kind::Num),
    ("--no-prune", POLICY, "policy.prune", Kind::Off),
    ("--no-clamp", POLICY, "policy.hardware_clamp", Kind::Off),
    ("--risk", &["optimize"], "risk", Kind::Str),
    ("--backend", &["execute"], "backend", Kind::Str),
    ("--engine-workers", &["execute"], "workers", Kind::Num),
    ("--assign", &["execute"], "assignments", Kind::List),
    ("--seed", &["execute", "train"], "seed", Kind::Num),
    ("--noise", &["execute", "train"], "noise", Kind::Num),
    ("--sim-seed", &["compare"], "sim_seed", Kind::Num),
    ("--rows", &["train"], "rows", Kind::Num),
    ("--trees", &["train"], "n_trees", Kind::Num),
    ("--source", &["train"], "source", Kind::Str),
    ("--forest-seed", &["train"], "forest_seed", Kind::Num),
    ("--model", MODEL, "", Kind::Str),
    ("--model-out", &["train"], "", Kind::Str),
    ("--cache-capacity", &["serve"], "", Kind::Num),
    ("--tcp", &["serve"], "", Kind::Num),
];

/// The command line as [`Flag`]s, in order; a flag with no [`FLAGS`] row
/// for `verb` is an error.
fn parse_flags<'a>(verb: &str, args: &'a [String]) -> Result<Vec<Flag<'a>>, String> {
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            return Err(format!("unexpected argument {arg:?}"));
        }
        let Some(row) = FLAGS
            .iter()
            .find(|(flag, verbs, ..)| flag == arg && verbs.contains(&verb))
        else {
            return Err(format!("unknown flag {arg} for `robopt {verb}`"));
        };
        let value = match row.3 {
            Kind::Off => "",
            _ => it
                .next()
                .ok_or_else(|| format!("flag {arg} expects a value"))?,
        };
        flags.push((row, value));
    }
    Ok(flags)
}

/// The raw value of deployment flag `name` (a row with an empty path).
fn deployment<'a>(flags: &[Flag<'a>], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|((flag, _, path, _), _)| *flag == name && path.is_empty())
        .map(|&(_, value)| value)
}

/// Write `raw` as a JSON value of `kind`.
fn json_value(w: &mut Writer, flag: &str, kind: Kind, raw: &str) -> Result<(), String> {
    match kind {
        Kind::Num => match (raw.parse::<u64>(), raw.parse::<f64>()) {
            (Ok(n), _) => w.u64(n),
            (_, Ok(x)) if x.is_finite() => w.f64(x),
            _ => return Err(format!("flag {flag} has invalid value {raw:?}")),
        },
        Kind::Str => w.str(raw),
        Kind::List => {
            let items = raw.split(',').map(str::trim);
            w.arr(items.filter(|item| !item.is_empty()), |w, item| w.str(item))
        }
        Kind::Off => w.bool(false),
    }
    Ok(())
}

/// The request line `robopt <verb> <flags>` stands for: each flag's value
/// at its row's path — the request's own members first, then one nested
/// object per path prefix in first-use order — plus the one thing the wire
/// requires that the command line lets you omit: the workload kind, as if
/// `--workload wordcount` led the flags.
fn request_line(verb: &str, flags: &[Flag<'_>]) -> Result<String, String> {
    let given = flags.iter().any(|(row, _)| row.0 == WORKLOAD_FLAG.0);
    let implied = (WORKLOAD.contains(&verb) && !given).then_some((&WORKLOAD_FLAG, "wordcount"));
    // `(key, flag, kind, value)` members per object; "" is the request itself.
    let mut objects = vec![("", Vec::new())];
    for &(&(flag, _, path, kind), raw) in implied.iter().chain(flags) {
        if path.is_empty() {
            continue;
        }
        let (object, key) = path.split_once('.').unwrap_or(("", path));
        match objects.iter_mut().find(|(name, _)| *name == object) {
            Some((_, members)) => members.push((key, flag, kind, raw)),
            None => objects.push((object, vec![(key, flag, kind, raw)])),
        }
    }
    let mut w = Writer::default();
    w.obj(|w| {
        w.key("op").str(verb);
        objects.iter().try_for_each(|(object, members)| {
            let write = |w: &mut Writer| {
                let mut members = members.iter();
                members
                    .try_for_each(|&(key, flag, kind, raw)| json_value(w.key(key), flag, kind, raw))
            };
            match *object {
                "" => write(w),
                object => w.key(object).obj(write),
            }
        })
    })?;
    Ok(w.finish())
}

/// Build the facade from the deployment flags: `--model` and
/// `--cache-capacity`.
fn optimizer_from_flags(flags: &[Flag<'_>]) -> Result<Optimizer, String> {
    let mut opt = Optimizer::named();
    if let Some(capacity) = deployment(flags, "--cache-capacity") {
        let capacity: usize = capacity
            .parse()
            .map_err(|_| format!("--cache-capacity has invalid value {capacity:?}"))?;
        opt.set_cache_capacity(capacity);
    }
    if let Some(path) = deployment(flags, "--model") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read model file {path:?}: {e}"))?;
        let forest = robopt::forest_from_json(&text).map_err(|e| e.to_string())?;
        opt.install_forest(forest).map_err(|e| e.to_string())?;
    }
    Ok(opt)
}

/// Answer one request and print the response line; a successful `train`
/// persists the new forest to `model_out` first.
fn cmd_one_shot(opt: &mut Optimizer, req: &Request, model_out: Option<&str>) -> i32 {
    let resp = dispatch(opt, req);
    if let (Response::Train(_), Some(path)) = (&resp, model_out) {
        let Some(forest) = opt.forest() else {
            eprintln!("internal error: train succeeded without a forest");
            return EXIT_REQUEST_FAILED;
        };
        if let Err(e) = std::fs::write(path, robopt::forest_to_json(forest)) {
            eprintln!("cannot write model file {path:?}: {e}");
            return EXIT_REQUEST_FAILED;
        }
    }
    println!("{}", render_response(&resp));
    if matches!(resp, Response::Error(_)) {
        EXIT_REQUEST_FAILED
    } else {
        EXIT_OK
    }
}

fn cmd_serve(opt: &mut Optimizer, flags: &[Flag<'_>]) -> Result<i32, String> {
    let Some(port) = deployment(flags, "--tcp") else {
        let stdin = std::io::stdin();
        let mut stdout = std::io::stdout().lock();
        serve_lines(opt, stdin.lock(), &mut stdout);
        return Ok(EXIT_OK);
    };
    let port = port
        .parse::<u16>()
        .map_err(|_| format!("--tcp has invalid port {port:?}"))?;
    Ok(serve_tcp(opt, port))
}

/// The longest request line the serve loop reads. The longest valid
/// request, an `execute` pinning 128 operators, is about 1.5 KB.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Read one line into `line`, without its `\n` or `\r\n` (as
/// `BufRead::lines` strips them). At most [`MAX_LINE_BYTES`] + 1 bytes of
/// it are kept, so `line.len() > MAX_LINE_BYTES` means it was longer,
/// however much longer; the rest is read and dropped. `Ok(false)` at end of
/// input.
fn read_line_capped<R: BufRead>(reader: &mut R, line: &mut Vec<u8>) -> std::io::Result<bool> {
    line.clear();
    let (mut ended, mut dropped) = (false, false);
    while !ended {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            break;
        }
        let (chunk, used) = match buf.iter().position(|&b| b == b'\n') {
            Some(at) => {
                ended = true;
                (&buf[..at], at + 1)
            }
            None => (buf, buf.len()),
        };
        let room = (MAX_LINE_BYTES + 1).saturating_sub(line.len());
        dropped |= chunk.len() > room;
        line.extend_from_slice(&chunk[..chunk.len().min(room)]);
        reader.consume(used);
    }
    if ended && !dropped && line.last() == Some(&b'\r') {
        line.pop();
    }
    // Every byte read is the newline or kept: the cap keeps at least one.
    Ok(ended || !line.is_empty())
}

/// The text of a line, or why the serve loop refuses it before parsing.
fn line_text(line: &[u8]) -> Result<&str, ServiceError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(ServiceError::Parse(format!(
            "request line longer than {MAX_LINE_BYTES} bytes"
        )));
    }
    std::str::from_utf8(line).map_err(|e| {
        ServiceError::Parse(format!(
            "request line is not UTF-8 (invalid byte at {})",
            e.valid_up_to()
        ))
    })
}

/// The serve loop: one request line in, one response line out, until
/// `quit` or EOF. Shared by stdin and per-connection TCP serving. Lines are
/// read as bytes into one reused buffer ([`read_line_capped`]), so a line
/// that is too long or not UTF-8 gets one parse-error reply and the session
/// goes on with the next line.
/// Returns `true` if the session ended with an explicit `quit`.
fn serve_lines<R: BufRead, W: Write>(opt: &mut Optimizer, mut reader: R, writer: &mut W) -> bool {
    let mut line = Vec::new();
    while let Ok(true) = read_line_capped(&mut reader, &mut line) {
        let request = match line_text(&line) {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => parse_request(text),
            Err(e) => Err(e),
        };
        let (mut reply, quit) = match request {
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
    let answer = match req {
        Request::Optimize(r) => opt.optimize(r).map(Response::Optimize),
        Request::Train(r) => opt.train(r).map(Response::Train),
        Request::Execute(r) => opt.execute(r).map(Response::Execute),
        Request::Compare(r) => opt.compare(r).map(Response::Compare),
        Request::Stats => Ok(Response::Stats(opt.service_stats())),
        Request::Quit => Err(ServiceError::InvalidRequest(
            "quit is handled by the serve loop".to_string(),
        )),
    };
    answer.unwrap_or_else(Response::Error)
}

fn quit_ack() -> String {
    let mut w = Writer::default();
    w.obj(|w| {
        w.key("ok").bool(true);
        w.key("kind").str("quit");
    });
    w.finish()
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

    fn args(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    /// The `Request` that `robopt <verb> <flags>` sends.
    fn request(verb: &str, flags: &[&str]) -> Result<Request, String> {
        let flags = args(flags);
        let line = request_line(verb, &parse_flags(verb, &flags)?)?;
        parse_request(&line).map_err(|e| e.to_string())
    }

    /// The flag table is total and documented: every row is a live flag of
    /// a real subcommand — setting it alone moves the request the wire
    /// decodes, or reaches the facade — and USAGE mentions it.
    #[test]
    fn every_flag_row_reaches_the_request_and_the_usage_text() {
        // (flag, a non-default value, the flags that make it matter, the
        // request line PR 18 built for the first verb that takes the flag)
        #[rustfmt::skip]
        const SAMPLES: &[(&str, &str, &[&str], &str)] = &[
            ("--workload", "tpch_q3", &[], r#"{"op":"optimize","workload":{"kind":"tpch_q3"}}"#),
            ("--scale", "3e3", &[], r#"{"op":"optimize","workload":{"kind":"wordcount","scale":3000.0}}"#),
            ("--ops", "9", &["--workload", "pipeline"], r#"{"op":"optimize","workload":{"kind":"pipeline","ops":9}}"#),
            ("--dag-seed", "5", &["--workload", "random_dag"], r#"{"op":"optimize","workload":{"kind":"random_dag","seed":5}}"#),
            ("--density", "0.7", &["--workload", "random_dag"], r#"{"op":"optimize","workload":{"kind":"random_dag","density":0.7}}"#),
            ("--iterations", "3", &["--workload", "pagerank"], r#"{"op":"optimize","workload":{"kind":"pagerank","iterations":3}}"#),
            ("--workers", "3", &[], r#"{"op":"optimize","workload":{"kind":"wordcount"},"policy":{"workers":3}}"#),
            ("--split-parts", "2", &[], r#"{"op":"optimize","workload":{"kind":"wordcount"},"policy":{"split_parts":2}}"#),
            ("--no-prune", "", &[], r#"{"op":"optimize","workload":{"kind":"wordcount"},"policy":{"prune":false}}"#),
            ("--no-clamp", "", &[], r#"{"op":"optimize","workload":{"kind":"wordcount"},"policy":{"hardware_clamp":false}}"#),
            ("--risk", "q0.9", &[], r#"{"op":"optimize","risk":"q0.9","workload":{"kind":"wordcount"}}"#),
            ("--backend", "simulator", &[], r#"{"op":"execute","backend":"simulator","workload":{"kind":"wordcount"}}"#),
            ("--engine-workers", "3", &[], r#"{"op":"execute","workers":3,"workload":{"kind":"wordcount"}}"#),
            ("--assign", "java,spark", &[], r#"{"op":"execute","assignments":["java","spark"],"workload":{"kind":"wordcount"}}"#),
            ("--seed", "7", &["--backend", "simulator"], r#"{"op":"execute","backend":"simulator","seed":7,"workload":{"kind":"wordcount"}}"#),
            ("--noise", "0.25", &["--backend", "simulator"], r#"{"op":"execute","backend":"simulator","noise":0.25,"workload":{"kind":"wordcount"}}"#),
            ("--sim-seed", "7", &[], r#"{"op":"compare","sim_seed":7,"workload":{"kind":"wordcount"}}"#),
            ("--rows", "64", &[], r#"{"op":"train","rows":64}"#),
            ("--trees", "4", &[], r#"{"op":"train","n_trees":4}"#),
            ("--source", "tdgen", &[], r#"{"op":"train","source":"tdgen"}"#),
            ("--forest-seed", "9", &[], r#"{"op":"train","forest_seed":9}"#),
        ];
        for &(flag, verbs, path, kind) in FLAGS {
            assert!(USAGE.contains(flag), "USAGE omits {flag}");
            if path.is_empty() {
                continue;
            }
            let &(_, value, context, line) = SAMPLES
                .iter()
                .find(|(sample, ..)| *sample == flag)
                .unwrap_or_else(|| panic!("no sample value for {flag}"));
            for verb in verbs {
                // `--backend` is an execute flag; train needs no context.
                let context = if *verb == "train" { &[] } else { context };
                let mut with = context.to_vec();
                with.push(flag);
                if kind != Kind::Off {
                    with.push(value);
                }
                let bare = request(verb, context).expect("context alone is valid");
                let set = request(verb, &with).expect("sample value is valid");
                assert_ne!(bare, set, "{verb} {flag} is a dead flag");
                if *verb == verbs[0] {
                    let with = args(&with);
                    let flags = parse_flags(verb, &with).expect("sample flags");
                    assert_eq!(request_line(verb, &flags).as_deref(), Ok(line));
                }
            }
        }
        // Members keep flag order inside first-use object order, after the
        // request's own; integers stay verbatim, other numbers shortest
        // round-trip; a list drops blanks; no flags is the bare verb.
        #[rustfmt::skip]
        let lines = [
            ("optimize", "--risk|sigma2|--scale|1e5|--no-prune|--workload|pipeline|--ops|24|--workers|2", r#"{"op":"optimize","risk":"sigma2","workload":{"scale":100000.0,"kind":"pipeline","ops":24},"policy":{"prune":false,"workers":2}}"#),
            ("execute", "--assign| java , ,spark,|--scale|18446744073709551616|--seed|18446744073709551615", r#"{"op":"execute","assignments":["java","spark"],"seed":18446744073709551615,"workload":{"kind":"wordcount","scale":1.8446744073709552e19}}"#),
            ("train", "", r#"{"op":"train"}"#),
        ];
        for (verb, flags, line) in lines {
            let flags: Vec<String> = flags.split_terminator('|').map(str::to_string).collect();
            let flags = parse_flags(verb, &flags).expect("golden flags");
            assert_eq!(request_line(verb, &flags).as_deref(), Ok(line));
        }
        assert_eq!(quit_ack(), r#"{"ok":true,"kind":"quit"}"#);
        // Every op the wire accepts is documented, and only those.
        for op in [
            "optimize", "execute", "compare", "train", "stats", "quit", "simulate",
        ] {
            let line = format!(r#"{{"op":"{op}","workload":{{"kind":"wordcount"}}}}"#);
            assert_eq!(
                parse_request(&line).is_ok(),
                USAGE.contains(&format!("\"{op}\"")),
                "USAGE and parse_request disagree on {op:?}"
            );
        }
        // A 64-bit seed crosses the flag → line → request path exactly.
        let Ok(Request::Train(train)) = request("train", &["--seed", "18446744073709551615"])
        else {
            panic!("train line parsed as another verb");
        };
        assert_eq!(
            train.source,
            robopt::TrainSource::Simulator {
                seed: u64::MAX,
                noise: 0.05
            }
        );
    }

    #[test]
    fn serve_loop_survives_garbage_and_over_budget_lines() {
        // The third line used to abort the daemon in `handle_alloc_error`;
        // the fourth used to reserve 1.7 GB of training rows. Of the last
        // three optimize lines, the first asked one merge for 9.6 GB and the
        // other two staged 22–31 million rows each.
        let script = concat!(
            "this is not json\n",
            r#"{"op":"warp"}"#,
            "\n",
            r#"{"op":"optimize","workload":{"kind":"random_dag","ops":12,"seed":3,"density":0.5},"policy":{"prune":false}}"#,
            "\n",
            r#"{"op":"train","rows":1000000}"#,
            "\n",
            r#"{"op":"optimize","workload":{"kind":"random_dag","ops":48}}"#,
            "\n",
            r#"{"op":"optimize","workload":{"kind":"random_dag","ops":32}}"#,
            "\n",
            r#"{"op":"optimize","workload":{"kind":"random_dag","ops":24,"density":1.0}}"#,
            "\n",
            r#"{"op":"stats"}"#,
            "\n",
        );
        let mut opt = Optimizer::named();
        let mut out = CountingWriter::default();
        let quit = serve_lines(&mut opt, script.as_bytes(), &mut out);
        assert!(!quit, "EOF, not quit");
        assert_eq!(out.writes, 8, "an error reply is one write too");
        let text = String::from_utf8(out.bytes).expect("utf-8 output");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8);
        for refused in &lines[..7] {
            assert!(refused.contains("\"ok\":false"), "{refused}");
        }
        for (line, estimate) in [
            (2, "2954279"),
            (4, "2360023"),
            (5, "299354"),
            (6, "1104508"),
        ] {
            for named in ["too large", estimate, "enumeration rows", "262144"] {
                assert!(lines[line].contains(named), "{named}: {}", lines[line]);
            }
        }
        for named in ["too large", "211000000", "16777216"] {
            assert!(lines[3].contains(named), "{named}: {}", lines[3]);
        }
        assert!(
            opt.forest().is_none(),
            "the refused train installed nothing"
        );
        // The refused optimizes were counted, missed, and cached nothing.
        for counter in [
            "\"ok\":true",
            "\"requests\":4",
            "\"misses\":4",
            "\"insertions\":0",
        ] {
            assert!(lines[7].contains(counter), "{counter}: {}", lines[7]);
        }
    }

    /// The replies a serve session over `input` writes, one per line.
    fn serve_replies(input: &[u8]) -> Vec<String> {
        let mut opt = Optimizer::named();
        let mut out = Vec::new();
        serve_lines(&mut opt, input, &mut out);
        let text = String::from_utf8(out).expect("utf-8 output");
        text.lines().map(str::to_string).collect()
    }

    /// Regression test: a non-UTF-8 byte used to end the session without a
    /// reply (`BufRead::lines` yields `Err(InvalidData)`), dropping every
    /// later request too.
    #[test]
    fn serve_loop_answers_a_non_utf8_line_and_goes_on() {
        for input in [
            &b"\xff\n{\"op\":\"stats\"}\n"[..],
            b"{\"op\":\"stats\"}\n\xff\n{\"op\":\"stats\"}\n",
        ] {
            let replies = serve_replies(input);
            assert_eq!(replies.len(), input.split(|&b| b == b'\n').count() - 1);
            let refused = replies.iter().find(|r| r.contains("\"ok\":false"));
            let refused = refused.expect("the \\xff line is answered");
            assert!(
                refused.contains("not UTF-8 (invalid byte at 0)"),
                "{refused}"
            );
            assert!(replies
                .last()
                .is_some_and(|r| r.contains("\"kind\":\"stats\"")));
        }
        // Valid UTF-8 that is not ASCII is parsed as before.
        let replies = serve_replies("{\"op\":\"é\"}\n".as_bytes());
        assert!(
            replies[0].contains("unknown op \\\"é\\\""),
            "{}",
            replies[0]
        );
    }

    #[test]
    fn serve_loop_refuses_an_overlong_line_and_goes_on() {
        let mut input = vec![b'x'; 1 << 20];
        input.extend_from_slice(b"\n{\"op\":\"stats\"}\r\n");
        let replies = serve_replies(&input);
        assert_eq!(replies.len(), 2);
        assert!(
            replies[0].contains("longer than 65536 bytes"),
            "{}",
            replies[0]
        );
        assert!(replies[1].contains("\"kind\":\"stats\""), "{}", replies[1]);
        // The buffer keeps the cap plus one byte, however long the line;
        // a line at the cap is whole, and `\r\n` ends a line like `\n`.
        let mut line = Vec::new();
        let mut reader = &input[..];
        assert!(read_line_capped(&mut reader, &mut line).expect("read"));
        assert_eq!(line.len(), MAX_LINE_BYTES + 1);
        assert!(read_line_capped(&mut reader, &mut line).expect("read"));
        assert_eq!(line, b"{\"op\":\"stats\"}");
        assert!(!read_line_capped(&mut reader, &mut line).expect("read"));
        let at_cap = [vec![b' '; MAX_LINE_BYTES], b"\r\n".to_vec()].concat();
        assert!(read_line_capped(&mut &at_cap[..], &mut line).expect("read"));
        assert_eq!(line.len(), MAX_LINE_BYTES);
        assert!(line_text(&line).is_ok());
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

        // Client 1: a line that is not UTF-8, one optimize, then drop the
        // socket (no quit).
        {
            let mut c1 = TcpStream::connect(addr).expect("client 1 connect");
            let mut reader = BufReader::new(c1.try_clone().expect("clone"));
            let mut line = String::new();
            c1.write_all(b"\xff\n").expect("client 1 write garbage");
            reader.read_line(&mut line).expect("client 1 read error");
            assert!(line.contains("not UTF-8"), "{line}");
            writeln!(
                c1,
                r#"{{"op":"optimize","workload":{{"kind":"wordcount","scale":1e7}}}}"#
            )
            .expect("client 1 write");
            line.clear();
            reader.read_line(&mut line).expect("client 1 read");
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
        let Ok(Request::Optimize(req)) = request("optimize", &["--risk", "sigma1.5"]) else {
            panic!("optimize line parsed as another verb");
        };
        assert_eq!(req.risk, robopt::RiskPolicy::MeanPlusKSigma(1.5));
        let Ok(Request::Optimize(req)) = request("optimize", &[]) else {
            panic!("optimize line parsed as another verb");
        };
        assert_eq!(req.risk, robopt::RiskPolicy::ExpectedCost);
        assert!(
            request("optimize", &["--risk", "wild"]).is_err(),
            "unknown policy is a usage error"
        );
        // End to end: the policy rides the wire into the response.
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
        for (verb, bad, names) in [
            ("train", &["--rows"][..], "expects a value"),
            ("optimize", &["stray"], "stray"),
            // Regression: a misspelt flag used to be silently ignored and
            // the default workload optimized instead.
            ("optimize", &["--scael", "1e9"], "--scael"),
            ("optimize", &["--rows", "64"], "--rows"),
            ("compare", &["--risk", "sigma2"], "--risk"),
            ("serve", &["--risk", "sigma2"], "--risk"),
            // Caching off is `--cache-capacity 0`; there is no second switch.
            ("serve", &["--no-cache"], "--no-cache"),
        ] {
            let err = parse_flags(verb, &args(bad)).expect_err("bad command line");
            assert!(err.contains(names), "{verb} {bad:?}: {err:?}");
        }
        for bad in [
            &["--scale", "inf"][..],
            &["--scale", "lots"],
            &["--ops", "1.5"],
            &["--workload", "mystery"],
        ] {
            assert!(request("optimize", bad).is_err(), "{bad:?}");
        }
        assert_eq!(run(args(&["optimize", "--scael", "1e9"])), EXIT_USAGE);
        // A switch takes no value: the next argument is the next flag.
        assert_eq!(
            request(
                "optimize",
                &["--no-clamp", "--workload", "pipeline", "--ops", "24"]
            ),
            Ok(Request::Optimize(
                robopt::OptimizeRequest::new(robopt::WorkloadSpec::Pipeline {
                    ops: 24,
                    scale: 1e5
                })
                .with_policy(robopt::ExecutionPolicy::default().with_hardware_clamp(false))
            ))
        );
    }
}

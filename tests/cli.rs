//! Integration tests for the `rbd` command-line tool, driving the compiled
//! binary the way a user would.

use rbd::core::RecordExtractor;
use rbd::store::extraction_response_json;
use rbd_json::Json;
use std::io::Write;
use std::process::{Command, Stdio};

const PAGE: &str = "<html><body><table><tr><td>\
  <hr><b>Ann B. Smith</b><br> died on May 1, 1998, age 90. Funeral at 10:00 a.m.\
  <hr><b>Bob C. Jones</b><br> died on May 2, 1998, age 81. Funeral at 11:00 a.m.\
  <hr><b>Cal D. Young</b><br> died on May 3, 1998, age 72. Funeral at 12:00 p.m.\
  <hr></td></tr></table></body></html>";

fn rbd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rbd"))
}

fn run_with_stdin(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = rbd()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    // A broken pipe is fine: on argument errors the binary exits before
    // reading stdin, and losing that race must not fail the test.
    match child
        .stdin
        .as_mut()
        .expect("piped")
        .write_all(stdin.as_bytes())
    {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
        Err(e) => panic!("write stdin: {e}"),
    }
    let out = child.wait_with_output().expect("runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn discover_from_stdin() {
    let (stdout, stderr, ok) = run_with_stdin(&["discover", "--ontology", "obituary"], PAGE);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("separator: <hr>"), "{stdout}");
    assert!(stdout.contains("OM:"), "all heuristics reported\n{stdout}");
}

#[test]
fn discover_json_shape() {
    let (stdout, _, ok) = run_with_stdin(&["discover", "--json"], PAGE);
    assert!(ok);
    assert!(stdout.contains("\"separator\":\"hr\""), "{stdout}");
    assert!(stdout.contains("\"scored\":["), "{stdout}");
}

#[test]
fn extract_prints_three_records() {
    let (stdout, _, ok) = run_with_stdin(&["extract"], PAGE);
    assert!(ok);
    assert_eq!(stdout.matches("--- record ").count(), 3, "{stdout}");
    assert!(stdout.contains("Bob C. Jones"));
}

#[test]
fn extract_json_escapes_record_text() {
    // Quotes, backslashes, a tab (squeezed to a space by markup cleaning)
    // and a raw control byte in the record text.
    let page = "<html><body><td>\
      <hr><b>Ann</b> said \"hi\" \\ bye\tnow \u{1} end.\
      <hr><b>Bob</b> said \"yo\" \\ later\tthen \u{1} end.\
      <hr><b>Cal</b> said \"ok\" \\ done\tsoon \u{1} end.\
      <hr></td></body></html>";
    let (stdout, stderr, ok) = run_with_stdin(&["extract", "--json"], page);
    assert!(ok, "stderr: {stderr}");
    let json = Json::parse(stdout.trim()).unwrap_or_else(|e| panic!("{e}: {stdout}"));
    let expected = RecordExtractor::default().extract_records(page).unwrap();
    // Byte for byte the body `rbd serve` answers `POST /extract` with.
    assert_eq!(
        stdout.trim(),
        extraction_response_json(&expected).to_compact()
    );
    assert_eq!(
        json.get("separator").and_then(Json::as_str),
        Some(expected.outcome.separator.as_str())
    );
    let Some(Json::Array(records)) = json.get("records") else {
        panic!("records array missing: {stdout}")
    };
    assert_eq!(records.len(), expected.records.len());
    for (record, want) in records.iter().zip(&expected.records) {
        let text = record.get("text").and_then(Json::as_str).expect("text");
        assert_eq!(text, want.text);
        for needle in ["\"", "\\", "\u{1}"] {
            assert!(text.contains(needle), "{needle:?} lost from {text:?}");
        }
    }
}

#[test]
fn pipeline_populates_database() {
    let (stdout, stderr, ok) = run_with_stdin(&["pipeline", "--ontology", "obituary"], PAGE);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("-- Deceased (3 rows)"), "{stdout}");
    assert!(stdout.contains("May 2, 1998"));
}

#[test]
fn pipeline_requires_ontology() {
    let (_, stderr, ok) = run_with_stdin(&["pipeline"], PAGE);
    assert!(!ok);
    assert!(stderr.contains("requires --ontology"), "{stderr}");
}

#[test]
fn check_classifies_record_list() {
    let (stdout, stderr, ok) = run_with_stdin(&["check", "--ontology", "obituary"], PAGE);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("class: multiple records"), "{stdout}");
    assert!(stdout.contains("estimated records:"), "{stdout}");
}

#[test]
fn check_without_ontology_uses_structure_only() {
    let (stdout, _, ok) = run_with_stdin(&["check"], PAGE);
    assert!(ok);
    assert!(stdout.contains("class: multiple records"), "{stdout}");
    assert!(stdout.contains("(no ontology)"), "{stdout}");
}

#[test]
fn check_honours_xml_mode() {
    // Case-sensitive XML names make `Ad` and `ad` two candidates; `check`
    // must count them from the same tree `discover` ranks.
    let feed = "<feed><title>Ads</title><Ad>one</Ad><ad>x</ad><Ad>two</Ad><ad>y</ad>\
                <Ad>three</Ad><ad>z</ad><Ad>four</Ad><Note>n</Note></feed>";
    let (stdout, stderr, ok) = run_with_stdin(&["check", "--xml"], feed);
    assert!(ok, "stderr: {stderr}");
    let (discovered, stderr, ok) = run_with_stdin(&["discover", "--xml", "--json"], feed);
    assert!(ok, "stderr: {stderr}");
    assert!(discovered.contains("\"candidates\":4"), "{discovered}");
    assert!(stdout.contains("candidate tags: 4"), "{stdout}");
}

#[test]
fn tree_prints_outline() {
    let (stdout, _, ok) = run_with_stdin(&["tree"], PAGE);
    assert!(ok);
    assert!(stdout.starts_with("#root"), "{stdout}");
    assert!(stdout.contains("td"));
}

#[test]
fn ontology_file_flag() {
    let dir = std::env::temp_dir().join("rbd-cli-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("mini.ont");
    std::fs::write(
        &path,
        "ontology mini entity Thing\n\
         object When one-to-one {\n    keyword \"died on\"\n}\n\
         object Age functional {\n    keyword \"age [0-9]+\"\n}\n\
         object At functional {\n    keyword \"funeral at\"\n}\n",
    )
    .expect("write ontology");
    let (stdout, stderr, ok) = run_with_stdin(
        &["discover", "--ontology-file", path.to_str().expect("utf8")],
        PAGE,
    );
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("separator: <hr>"), "{stdout}");
}

#[test]
fn bad_arguments_fail_cleanly() {
    let (_, stderr, ok) = run_with_stdin(&["discover", "--ontology", "nonsense"], PAGE);
    assert!(!ok);
    assert!(stderr.contains("unknown built-in ontology"));

    let (_, stderr, ok) = run_with_stdin(&["frobnicate"], PAGE);
    assert!(!ok);
    assert!(stderr.contains("unknown command"), "{stderr}");

    let (_, stderr, ok) = run_with_stdin(&["discover", "missing-file.html"], "");
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn trace_flag_writes_audit_trail() {
    let dir = std::env::temp_dir().join("rbd-cli-trace-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("trace.json");
    let (stdout, stderr, ok) = run_with_stdin(
        &[
            "discover",
            "--ontology",
            "obituary",
            "--trace",
            path.to_str().expect("utf8"),
        ],
        PAGE,
    );
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("separator: <hr>"), "{stdout}");
    let trace = std::fs::read_to_string(&path).expect("trace written");
    // The winning subtree, every candidate with count and threshold, all
    // five heuristics with raw inputs, and the consensus all appear.
    assert!(trace.contains("\"subtree_chosen\""), "{trace}");
    assert!(trace.contains("\"candidates\""), "{trace}");
    assert!(trace.contains("\"threshold\": 0.1"), "{trace}");
    for h in ["OM", "RP", "SD", "IT", "HT"] {
        assert!(
            trace.contains(&format!("\"name\": \"{h}\"")),
            "{h}\n{trace}"
        );
    }
    assert!(trace.contains("\"estimate\""), "OM's raw input\n{trace}");
    assert!(trace.contains("\"consensus\""), "{trace}");
    assert!(trace.contains("\"spans\""), "{trace}");
    assert!(trace.contains("\"metrics\""), "{trace}");
}

#[test]
fn metrics_flag_prints_snapshot_to_stderr() {
    let (stdout, stderr, ok) = run_with_stdin(&["extract", "--metrics"], PAGE);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("--- record "), "{stdout}");
    assert!(stderr.contains("\"counters\""), "{stderr}");
    assert!(stderr.contains("\"extract_docs\": 1"), "{stderr}");
    assert!(stderr.contains("\"extract_tags_scanned\""), "{stderr}");
    assert!(stderr.contains("\"bounds_ns\""), "{stderr}");
}

#[test]
fn trace_flag_needs_a_path() {
    let (_, stderr, ok) = run_with_stdin(&["discover", "--trace"], PAGE);
    assert!(!ok);
    assert!(stderr.contains("--trace needs a path"), "{stderr}");
}

#[test]
fn empty_input_reports_error() {
    let (_, stderr, ok) = run_with_stdin(&["discover"], "");
    assert!(!ok);
    assert!(stderr.contains("no tags"), "{stderr}");
}

#[test]
fn batch_json_reports_typed_error_entries() {
    let dir = std::env::temp_dir().join(format!("rbd-cli-batch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let good = dir.join("good.html");
    let bad = dir.join("bad.html");
    std::fs::write(&good, PAGE).expect("write good");
    std::fs::write(&bad, "no tags at all").expect("write bad");

    let (stdout, stderr, ok) = run_with_stdin(
        &[
            "batch",
            good.to_str().expect("utf-8 path"),
            bad.to_str().expect("utf-8 path"),
            "--json",
        ],
        "",
    );
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("\"records\":3"), "{stdout}");
    // The failing document yields a typed error object, not a bare string.
    assert!(
        stdout.contains("\"error\":{\"kind\":\"discovery\""),
        "{stdout}"
    );
    assert!(stdout.contains("document contains no tags"), "{stdout}");

    // The plain-text run ends with the summary line.
    let (stdout, stderr, ok) = run_with_stdin(
        &[
            "batch",
            good.to_str().expect("utf-8 path"),
            bad.to_str().expect("utf-8 path"),
            "--jobs",
            "2",
        ],
        "",
    );
    assert!(ok, "stderr: {stderr}");
    assert_eq!(
        stdout.lines().last(),
        Some("2 docs, 1 succeeded, 2 workers"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end store path: a cold `rbd batch --store` run reports misses
/// and populates the log, the identical warm run reports hits with the
/// same per-document JSON shape, and `rbd query` answers over the
/// persisted relations.
#[test]
fn batch_store_caches_and_query_answers() {
    let dir = std::env::temp_dir().join(format!("rbd-cli-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let good = dir.join("good.html");
    let bad = dir.join("bad.html");
    let store = dir.join("out.rbd");
    std::fs::write(&good, PAGE).expect("write good");
    std::fs::write(&bad, "no tags at all").expect("write bad");
    let args = [
        "batch",
        good.to_str().expect("utf-8 path"),
        bad.to_str().expect("utf-8 path"),
        "--store",
        store.to_str().expect("utf-8 path"),
        "--json",
    ];

    // Cold: everything misses; the failing document's error entry carries
    // its cache status too.
    let (stdout, stderr, ok) = run_with_stdin(&args, "");
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("\"records\":3") && stdout.contains("\"cache\":\"miss\""),
        "{stdout}"
    );
    assert!(!stdout.contains("\"cache\":\"hit\""), "{stdout}");
    assert!(
        stdout.contains("\"error\":{\"kind\":\"discovery\""),
        "{stdout}"
    );

    // Warm: the good document replays from the store; the failing one can
    // never be cached and misses again.
    let (stdout, stderr, ok) = run_with_stdin(&args, "");
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("\"records\":3") && stdout.contains("\"cache\":\"hit\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"cache\":\"miss\""), "{stdout}");

    // Query the persisted store: count, projection, and a text filter.
    let store_path = store.to_str().expect("utf-8 path");
    let (stdout, stderr, ok) =
        run_with_stdin(&["query", store_path, "select count(*) from records"], "");
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.trim(), "1", "{stdout}");

    let (stdout, stderr, ok) = run_with_stdin(
        &[
            "query",
            store_path,
            "select text from record_texts where text contains 'Bob' limit 1",
        ],
        "",
    );
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("Bob C. Jones"), "{stdout}");

    // Typed failure on a corrupt store file, not a panic.
    let corrupt = dir.join("corrupt.rbd");
    std::fs::write(&corrupt, b"RBDSTOREgarbage-not-a-frame").expect("write corrupt");
    let (_, stderr, ok) = run_with_stdin(
        &[
            "query",
            corrupt.to_str().expect("utf-8 path"),
            "select count(*) from records",
        ],
        "",
    );
    assert!(!ok);
    assert!(stderr.contains("corrupt"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end `rbd serve`: boot on an ephemeral port, extract over HTTP,
/// shut down gracefully via the admin endpoint, and check the exit report.
#[test]
fn serve_subcommand_extracts_and_shuts_down() {
    use std::io::{BufRead, BufReader, Read};

    let mut child = rbd()
        .args(["serve", "--port", "0", "--jobs", "2"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("read banner");
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner: {banner}"))
        .to_string();

    let talk = |raw: &[u8]| -> String {
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .expect("client timeout");
        std::io::Write::write_all(&mut stream, raw).expect("send");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read response");
        out
    };

    let request = format!(
        "POST /extract HTTP/1.1\r\nContent-Length: {}\r\n\r\n{PAGE}",
        PAGE.len()
    );
    let response = talk(request.as_bytes());
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(response.contains("\"separator\":\"hr\""), "{response}");

    let health = talk(b"GET /healthz HTTP/1.1\r\n\r\n");
    assert!(health.contains("\"status\":\"ok\""), "{health}");

    let bye = talk(b"POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    assert!(bye.starts_with("HTTP/1.1 200"), "{bye}");

    let status = child.wait().expect("server exits");
    assert!(status.success(), "serve exited non-zero");
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).expect("drain stderr");
    assert!(rest.contains("drained"), "{rest}");
}

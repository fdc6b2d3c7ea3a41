//! `rbd` — command-line record-boundary discovery and extraction.
//!
//! ```text
//! rbd discover [FILE] [--ontology NAME|--ontology-file PATH] [--json]
//! rbd extract  [FILE] [--ontology NAME|--ontology-file PATH] [--json]
//! rbd pipeline [FILE] --ontology NAME|--ontology-file PATH   [--json]
//! rbd check    [FILE] [--ontology NAME|--ontology-file PATH]
//! rbd tree     [FILE]
//! rbd batch    FILE... [--jobs N] [--json] [--store FILE]
//! rbd query    STORE EXPR...
//! ```
//!
//! `FILE` defaults to standard input (except `batch`, which takes one or
//! more files). `--ontology` accepts the four built-in domain names
//! (`obituary`, `car-ad`, `job-ad`, `course`); `--ontology-file` loads the
//! `rbd_ontology::dsl` text format, so new domains need no recompilation.
//! `batch` runs every file through the concurrent extraction pipeline
//! (`rbd-pipeline`) on `--jobs` workers and reports per-document results in
//! input order.

#![forbid(unsafe_code)]

use rbd::core::{ExtractorConfig, RecordExtractor};
use rbd::db::InstanceGenerator;
use rbd::ontology::{domains, parse_ontology, Ontology};
use rbd::recognizer::Recognizer;
use rbd::store::extraction_response_json;
use rbd::tagtree::TagTreeBuilder;
use rbd::trace::{CollectingSink, NullSink, TraceSink};
use rbd_json::Json;
use std::fmt::Write as _;
use std::io::{Read, Write as _};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
usage: rbd <discover|extract|pipeline|check|tree> [FILE]
           [--ontology obituary|car-ad|job-ad|course]
           [--ontology-file PATH] [--json] [--xml]
           [--trace PATH] [--metrics]
       rbd batch FILE... [--jobs N] [--json] [--metrics] [--store FILE]
       rbd serve [--addr HOST:PORT | --port N] [--jobs N] [--metrics]
                 [--trace-dir DIR] [--slow-ms N] [--store FILE]
       rbd query STORE EXPR...

Reads HTML from FILE (or stdin) and:
  discover   print the consensus record separator and heuristic rankings
  extract    print the cleaned record chunks
  pipeline   populate and dump the relational database (needs an ontology)
  check      verify the paper's assumptions (multiple records present?)
  tree       print the document's tag tree
  batch      extract every FILE concurrently on --jobs workers (default 4)
             and print one result line per document, in input order
  serve      run the long-lived extraction service (default 127.0.0.1:8080)
             on --jobs workers: POST /extract, GET /healthz, GET /metrics,
             POST /shutdown; drains gracefully on shutdown
  query      run a select expression over a persisted record store, e.g.
             rbd query out.rbd \"select * from records where separator = 'hr'\"
             (relations: records, record_texts; also count(*), order by,
             limit, contains, < >, is [not] null)

Persistence:
  --store FILE  (batch, serve) open FILE as the crash-safe record store
                and use it as a content-hash extraction cache: documents
                whose bytes are already committed are served from disk
                (cache hit) and fresh extractions are committed back

Observability:
  --trace PATH  write the decision audit trail (events, spans, metrics)
                of the run to PATH as JSON; the file embeds a
                `traceEvents` array, so Perfetto loads it directly
  --metrics     print the counter/histogram snapshot to stderr (for
                batch: the merged per-worker pipeline metrics)
  --trace-dir DIR  (serve) write each request's span tree to
                DIR/trace-<id>.json in Chrome trace-event format and slow
                captures to DIR/slow.jsonl
  --slow-ms N   (serve) keep the span tree and audit events of requests
                slower than N milliseconds in the bounded slow log";

struct Args {
    command: String,
    files: Vec<String>,
    ontology: Option<Ontology>,
    jobs: usize,
    json: bool,
    xml: bool,
    trace: Option<String>,
    trace_dir: Option<String>,
    slow_ms: Option<u64>,
    metrics: bool,
    addr: Option<String>,
    store: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or(USAGE)?;
    if matches!(command.as_str(), "-h" | "--help") {
        println!("{USAGE}");
        std::process::exit(0);
    }
    let mut args = Args {
        command,
        files: Vec::new(),
        ontology: None,
        jobs: 4,
        json: false,
        xml: false,
        trace: None,
        trace_dir: None,
        slow_ms: None,
        metrics: false,
        addr: None,
        store: None,
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--ontology" => {
                let name = argv.next().ok_or("--ontology needs a name")?;
                args.ontology = Some(match name.as_str() {
                    "obituary" | "obituaries" => domains::obituaries(),
                    "car-ad" | "car-ads" | "cars" => domains::car_ads(),
                    "job-ad" | "job-ads" | "jobs" => domains::job_ads(),
                    "course" | "courses" => domains::courses(),
                    other => return Err(format!("unknown built-in ontology `{other}`")),
                });
            }
            "--ontology-file" => {
                let path = argv.next().ok_or("--ontology-file needs a path")?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                let ontology = parse_ontology(&text).map_err(|e| format!("{path}: {e}"))?;
                let problems = ontology.validate();
                if !problems.is_empty() {
                    return Err(format!("{path}: {}", problems.join("; ")));
                }
                args.ontology = Some(ontology);
            }
            "--json" => args.json = true,
            "--xml" => args.xml = true,
            "--trace" => args.trace = Some(argv.next().ok_or("--trace needs a path")?),
            "--trace-dir" => {
                args.trace_dir = Some(argv.next().ok_or("--trace-dir needs a directory")?);
            }
            "--slow-ms" => {
                let n = argv.next().ok_or("--slow-ms needs a millisecond count")?;
                args.slow_ms =
                    Some(n.parse::<u64>().map_err(|_| {
                        format!("--slow-ms needs a non-negative integer, got `{n}`")
                    })?);
            }
            "--metrics" => args.metrics = true,
            "--store" => args.store = Some(argv.next().ok_or("--store needs a file path")?),
            "--addr" => {
                args.addr = Some(argv.next().ok_or("--addr needs HOST:PORT")?);
            }
            "--port" => {
                let p = argv.next().ok_or("--port needs a port number")?;
                let port = p
                    .parse::<u16>()
                    .map_err(|_| format!("--port needs a port number, got `{p}`"))?;
                args.addr = Some(format!("127.0.0.1:{port}"));
            }
            "--jobs" => {
                let n = argv.next().ok_or("--jobs needs a worker count")?;
                args.jobs = n
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--jobs needs a positive integer, got `{n}`"))?;
            }
            other if !other.starts_with('-') => {
                // `batch` takes many files; `query` takes a store path
                // followed by the (possibly unquoted) expression words.
                if args.files.is_empty() || matches!(args.command.as_str(), "batch" | "query") {
                    args.files.push(other.to_owned());
                } else {
                    return Err(format!(
                        "only `batch` and `query` accept multiple arguments (second was `{other}`)"
                    ));
                }
            }
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn read_input(file: Option<&str>) -> Result<String, String> {
    match file {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}")),
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            Ok(buf)
        }
    }
}

/// Rows as a JSON array of `{column: value}` objects, NULL cells as
/// `null` — the `--json` shape of `query` and `pipeline`.
fn rows_json<C: AsRef<str>>(columns: &[C], rows: &[Vec<Option<String>>]) -> Json {
    Json::array(rows.iter().map(|row| {
        Json::object(columns.iter().zip(row).map(|(c, v)| {
            let value = v.as_ref().map_or(Json::Null, |v| Json::Str(v.clone()));
            (c.as_ref(), value)
        }))
    }))
}

/// Writes `text` to stdout, ignoring errors — `rbd … | head` must not
/// panic when the pipe closes early.
fn emit(text: &str) {
    let _ = std::io::stdout().write_all(text.as_bytes());
}

/// Writes the sink's collected trace to `path` (when `--trace` was given)
/// and its metrics snapshot to stderr (when `--metrics` was given).
fn finish_observability(
    sink: Option<&Arc<CollectingSink>>,
    trace_path: Option<&str>,
    metrics: bool,
) -> Result<(), String> {
    let Some(sink) = sink else { return Ok(()) };
    if let Some(path) = trace_path {
        let json = sink.trace_json().to_pretty();
        std::fs::write(path, json.as_bytes()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if metrics {
        eprintln!("{}", sink.registry_snapshot().to_pretty());
    }
    Ok(())
}

/// `rbd batch FILE... --jobs N`: runs every file through the concurrent
/// pipeline and appends one line (or JSON object) per document to `out`,
/// in input order. Returns the merged pipeline metrics snapshot.
fn run_batch_files(
    args: &Args,
    extractor: &RecordExtractor,
    sink: Option<&Arc<CollectingSink>>,
    out: &mut String,
) -> Result<rbd::trace::RegistrySnapshot, String> {
    if args.files.is_empty() {
        return Err("batch requires at least one FILE argument".to_owned());
    }
    let mut docs = Vec::with_capacity(args.files.len());
    for (id, path) in (0u64..).zip(&args.files) {
        let html = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        docs.push((id, html));
    }
    let trace_sink: Arc<dyn TraceSink> = match sink {
        Some(s) => Arc::clone(s) as Arc<dyn TraceSink>,
        None => Arc::new(NullSink),
    };
    let config = rbd::pipeline::BatchConfig::with_jobs(args.jobs);
    if let Some(store_path) = &args.store {
        return run_batch_files_stored(
            args,
            extractor,
            &config,
            &trace_sink,
            store_path,
            docs,
            out,
        );
    }
    let report = rbd::pipeline::run_batch(extractor, docs, &config, &trace_sink)
        .map_err(|e| e.to_string())?;

    let mut lines = Vec::with_capacity(report.results.len());
    for result in &report.results {
        let path = args
            .files
            .get(usize::try_from(result.doc_id).unwrap_or(usize::MAX))
            .map_or("?", String::as_str);
        lines.push(if args.json {
            // Typed entries (rbd::report): failures carry an `"error"`
            // object with a `kind` discriminant (`discovery`/`panic`)
            // instead of a bare string.
            rbd::report::batch_entry_json(path, &result.outcome).to_string()
        } else {
            match &result.outcome {
                Ok(extraction) => format!(
                    "{path}: {} records (separator <{}>)",
                    extraction.records.len(),
                    extraction.outcome.separator
                ),
                Err(e) => format!("{path}: error: {e}"),
            }
        });
    }
    if args.json {
        let _ = writeln!(out, "[{}]", lines.join(","));
    } else {
        for line in &lines {
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(
            out,
            "{} docs, {} succeeded, {} workers",
            report.results.len(),
            report.succeeded(),
            args.jobs
        );
    }
    Ok(report.metrics)
}

/// The `rbd batch --store FILE` arm: same per-document output contract as
/// a plain batch, plus a `cache` field (`hit`/`miss`) on every entry and
/// typed `store_error` objects when a committed frame failed to read back.
fn run_batch_files_stored(
    args: &Args,
    extractor: &RecordExtractor,
    config: &rbd::pipeline::BatchConfig,
    trace_sink: &Arc<dyn TraceSink>,
    store_path: &str,
    docs: Vec<(u64, String)>,
    out: &mut String,
) -> Result<rbd::trace::RegistrySnapshot, String> {
    let mut store = rbd::store::Store::open(store_path)
        .map_err(|e| format!("cannot open store {store_path}: {e}"))?;
    let docs: Vec<(u64, Option<String>, String)> = docs
        .into_iter()
        .map(|(id, html)| {
            let source = args
                .files
                .get(usize::try_from(id).unwrap_or(usize::MAX))
                .cloned();
            (id, source, html)
        })
        .collect();
    let report = rbd::pipeline::run_batch_stored(extractor, docs, config, trace_sink, &mut store)
        .map_err(|e| e.to_string())?;
    if let Some(e) = &report.write_error {
        eprintln!(
            "warning: store commit to {store_path} failed ({e}); results are complete but uncached"
        );
    }

    let mut lines = Vec::with_capacity(report.results.len());
    for result in &report.results {
        let path = args
            .files
            .get(usize::try_from(result.doc_id).unwrap_or(usize::MAX))
            .map_or("?", String::as_str);
        lines.push(if args.json {
            rbd::report::cached_batch_entry_json(path, result).to_string()
        } else {
            match &result.outcome {
                Ok(stored) => format!(
                    "{path}: {} records (separator <{}>) [cache {}]",
                    stored.records.len(),
                    stored.separator,
                    result.cache.as_str()
                ),
                Err(e) => format!("{path}: error: {e}"),
            }
        });
    }
    if args.json {
        let _ = writeln!(out, "[{}]", lines.join(","));
    } else {
        for line in &lines {
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(
            out,
            "{} docs, {} succeeded, {} cache hits, {} misses, {} workers; store {} ({} docs)",
            report.results.len(),
            report.results.iter().filter(|r| r.outcome.is_ok()).count(),
            report.hits,
            report.misses,
            args.jobs,
            store_path,
            store.len()
        );
    }
    Ok(report.metrics)
}

/// `rbd query STORE EXPR...`: loads the persisted records into the
/// relational layer and runs one select expression over them.
fn run_query(args: &Args, out: &mut String) -> Result<(), String> {
    let store_path = args
        .files
        .first()
        .ok_or("query needs a STORE file and an expression")?;
    let text = args.files[1..].join(" ");
    if text.trim().is_empty() {
        return Err(
            "query needs an expression, e.g. rbd query out.rbd \"select * from records\""
                .to_owned(),
        );
    }
    let mut store = rbd::store::Store::open(store_path)
        .map_err(|e| format!("cannot open store {store_path}: {e}"))?;
    let db = store
        .load_database()
        .map_err(|e| format!("store {store_path}: {e}"))?;
    let expr = rbd::db::expr::parse(&text).map_err(|e| e.to_string())?;
    match rbd::db::expr::run(&db, &expr).map_err(|e| e.to_string())? {
        rbd::db::ResultSet::Count(n) => {
            if args.json {
                let _ = writeln!(out, "{}", Json::object([("count", Json::UInt(n as u64))]));
            } else {
                let _ = writeln!(out, "{n}");
            }
        }
        rbd::db::ResultSet::Rows { columns, rows } => {
            if args.json {
                let _ = writeln!(out, "{}", rows_json(&columns, &rows));
            } else {
                let _ = writeln!(out, "{}", columns.join("\t"));
                for row in &rows {
                    let cells: Vec<&str> =
                        row.iter().map(|v| v.as_deref().unwrap_or("NULL")).collect();
                    let _ = writeln!(out, "{}", cells.join("\t"));
                }
            }
        }
    }
    Ok(())
}

/// `rbd serve`: runs the fault-tolerant extraction service until it is
/// told to stop (`POST /shutdown`), then reports the drain outcome.
fn run_serve(args: &Args, sink: Option<&Arc<CollectingSink>>) -> Result<(), String> {
    let config = rbd::serve::ServeConfig {
        addr: args
            .addr
            .clone()
            .unwrap_or_else(|| "127.0.0.1:8080".to_string()),
        workers: args.jobs,
        trace_dir: args.trace_dir.clone().map(std::path::PathBuf::from),
        slow_threshold: args.slow_ms.map(std::time::Duration::from_millis),
        store: args.store.clone().map(std::path::PathBuf::from),
        ..rbd::serve::ServeConfig::default()
    };
    let audit: Option<Arc<dyn TraceSink>> = sink.map(|s| Arc::clone(s) as Arc<dyn TraceSink>);
    let server = rbd::serve::Server::bind(config, audit).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    eprintln!("rbd serve: listening on {addr} ({} workers)", args.jobs);
    eprintln!(
        "rbd serve: POST /extract | GET /healthz | GET /metrics (Prometheus) | GET /metrics.json | POST /shutdown"
    );
    let report = server.run();
    eprintln!(
        "rbd serve: drained {} in-flight, {} abandoned, {} worker panics",
        report.drained, report.abandoned, report.worker_panics
    );
    if args.metrics {
        eprintln!("{}", report.metrics.to_json().to_pretty());
    }
    finish_observability(sink, args.trace.as_deref(), false)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let mut out = String::new();

    let sink: Option<Arc<CollectingSink>> =
        (args.trace.is_some() || args.metrics).then(|| Arc::new(CollectingSink::new()));

    if args.command == "serve" {
        return run_serve(&args, sink.as_ref());
    }

    if args.command == "query" {
        run_query(&args, &mut out)?;
        emit(&out);
        return Ok(());
    }

    if args.command == "tree" {
        let html = read_input(args.files.first().map(String::as_str))?;
        let builder = if args.xml {
            TagTreeBuilder::default().xml()
        } else {
            TagTreeBuilder::default()
        };
        emit(&builder.build(&html).outline());
        return finish_observability(sink.as_ref(), args.trace.as_deref(), args.metrics);
    }

    let mut config = ExtractorConfig::default();
    if args.xml {
        config = config.xml();
    }
    if let Some(ontology) = args.ontology.clone() {
        config = config.with_ontology(ontology);
    }
    let trace_sink: &dyn TraceSink = match &sink {
        Some(sink) => sink.as_ref(),
        None => &NullSink,
    };

    if args.command == "batch" {
        let extractor = RecordExtractor::new(config).map_err(|e| e.to_string())?;
        let pool_metrics = run_batch_files(&args, &extractor, sink.as_ref(), &mut out)?;
        emit(&out);
        if args.metrics {
            // Merge the pool's per-worker registries with the extraction
            // metrics the workers recorded through the shared sink, so
            // `--metrics` shows one snapshot for the whole batch.
            let mut merged = rbd::trace::Registry::new();
            merged.merge(&pool_metrics);
            if let Some(sink) = &sink {
                merged.merge(&sink.registry().typed_snapshot());
            }
            eprintln!("{}", merged.snapshot().to_pretty());
        }
        return finish_observability(sink.as_ref(), args.trace.as_deref(), false);
    }

    let html = read_input(args.files.first().map(String::as_str))?;
    let extractor = RecordExtractor::new(config).map_err(|e| e.to_string())?;

    if args.command == "check" {
        let report = extractor
            .check_assumptions(&html)
            .map_err(|e| e.to_string())?;
        let _ = writeln!(out, "class: {}", report.class);
        let _ = writeln!(out, "max fan-out: {}", report.max_fanout);
        let _ = writeln!(out, "candidate tags: {}", report.candidate_count);
        match report.estimated_records {
            Some(est) => {
                let _ = writeln!(out, "estimated records: {est:.1}");
            }
            None => {
                let _ = writeln!(out, "estimated records: (no ontology)");
            }
        }
        emit(&out);
        return finish_observability(sink.as_ref(), args.trace.as_deref(), args.metrics);
    }

    match args.command.as_str() {
        "discover" => {
            let outcome = extractor
                .discover_traced(&html, trace_sink)
                .map_err(|e| e.to_string())?;
            if args.json {
                let scored = outcome.consensus.scored.iter().map(|s| {
                    Json::object([
                        ("tag", Json::Str(s.tag.clone())),
                        ("certainty", Json::Float(s.certainty.value())),
                    ])
                });
                let json = Json::object([
                    ("separator", Json::Str(outcome.separator.clone())),
                    ("subtree", Json::Str(outcome.subtree_tag.clone())),
                    ("candidates", Json::UInt(outcome.candidates.len() as u64)),
                    ("scored", Json::array(scored)),
                ]);
                let _ = writeln!(out, "{json}");
            } else {
                let _ = writeln!(out, "highest-fan-out subtree: <{}>", outcome.subtree_tag);
                for ranking in &outcome.rankings {
                    let _ = writeln!(out, "{}", ranking.to_paper_string());
                }
                for s in &outcome.consensus.scored {
                    let _ = writeln!(out, "  {:<6} {}", s.tag, s.certainty);
                }
                let _ = writeln!(out, "separator: <{}>", outcome.separator);
            }
        }
        "extract" => {
            let extraction = extractor
                .extract_records_traced(&html, trace_sink)
                .map_err(|e| e.to_string())?;
            if args.json {
                // The same bytes `rbd serve` answers `POST /extract` with.
                let json = extraction_response_json(&extraction).to_compact();
                let _ = writeln!(out, "{json}");
            } else {
                for (i, r) in extraction.records.iter().enumerate() {
                    let _ = writeln!(out, "--- record {i} ---");
                    let _ = writeln!(out, "{}", r.text);
                }
            }
        }
        "pipeline" => {
            let ontology = args
                .ontology
                .ok_or("pipeline requires --ontology or --ontology-file")?;
            let extraction = extractor
                .extract_records_traced(&html, trace_sink)
                .map_err(|e| e.to_string())?;
            let recognizer = Recognizer::new(&ontology).map_err(|e| e.to_string())?;
            let tables: Vec<_> = extraction
                .records
                .iter()
                .map(|r| recognizer.recognize(&r.text))
                .collect();
            let db = InstanceGenerator::new(&ontology).populate(&tables);
            if args.json {
                // One object per entity row.
                let entity = db.table(&db.scheme().entity_relation).expect("entity");
                let cols: Vec<&str> = entity
                    .relation()
                    .columns
                    .iter()
                    .map(|c| c.name.as_str())
                    .collect();
                let _ = writeln!(out, "{}", rows_json(&cols, entity.rows()));
            } else {
                let _ = write!(out, "{db}");
            }
        }
        other => return Err(format!("unknown command `{other}`\n{USAGE}")),
    }
    emit(&out);
    finish_observability(sink.as_ref(), args.trace.as_deref(), args.metrics)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

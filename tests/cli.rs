//! Smoke tests for the `hacc` CLI driver (built automatically for
//! integration tests; path via `CARGO_BIN_EXE_hacc`).

use std::process::{Command, Stdio};

fn hacc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hacc"))
        .args(args)
        .output()
        .expect("spawn hacc")
}

/// Run `hacc` with `stdin` piped in.
fn hacc_with_stdin(args: &[&str], stdin: &[u8]) -> std::process::Output {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_hacc"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hacc");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin)
        .expect("write stdin");
    child.wait_with_output().expect("wait for hacc")
}

/// A small request line for `hacc serve`.
const SERVE_REQUEST: &str = r#"{"id":"ok","source":"param n;\nlet a = array (1,n) [ i := i * 2 | i <- [1..n] ];\nresult a;","params":{"n":8}}"#;

/// Write `contents` to a scratch file in Cargo's per-target test
/// directory (which honours `CARGO_TARGET_DIR`) and return its path.
fn scratch_file(name: &str, contents: &str) -> String {
    let path = format!("{}/{name}", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn wavefront_program_runs() {
    let out = hacc(&["programs/wavefront.hac", "n=6"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("outcome: thunkless"), "{stdout}");
    assert!(stdout.contains("1683.0000"), "Delannoy corner: {stdout}");
    assert!(stdout.contains("0 thunks"), "{stdout}");
}

#[test]
fn sor_program_reports_in_place() {
    let out = hacc(&["programs/sor.hac", "n=8", "--fill", "random:7"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("in place, zero copies"), "{stdout}");
    assert!(stdout.contains("0 copies"), "{stdout}");
}

#[test]
fn thunked_mode_flag() {
    let out = hacc(&[
        "programs/wavefront.hac",
        "n=5",
        "--mode",
        "thunked",
        "--quiet",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("25 thunks"), "{stdout}");
}

#[test]
fn explain_only() {
    let out = hacc(&["programs/tridiag.hac", "n=6", "--no-run"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("dependences:"), "{stdout}");
    assert!(!stdout.contains("counters:"), "{stdout}");
}

#[test]
fn missing_parameter_is_a_clean_error() {
    let out = hacc(&["programs/wavefront.hac"]);
    assert_eq!(out.status.code(), Some(2), "compile errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("not"),
        "should explain the failure: {stderr}"
    );
}

#[test]
fn bad_file_is_a_clean_error() {
    let out = hacc(&["no-such-file.hac", "n=3"]);
    assert_eq!(out.status.code(), Some(1), "I/O errors exit 1");
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn failure_classes_get_distinct_exit_codes() {
    // Usage error: 1.
    let out = hacc(&["--threads", "zero"]);
    assert_eq!(out.status.code(), Some(1), "usage errors exit 1");

    // Parse error: 2, with a diagnostic on stderr.
    let path = scratch_file("cli_parse_err.hac", "let let let := ;;\n");
    let out = hacc(&[&path, "n=3"]);
    assert_eq!(out.status.code(), Some(2), "parse errors exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("parse error"));

    // Runtime error: 3.
    let path = scratch_file(
        "cli_runtime_err.hac",
        "param n;\nlet a = array (1,n) [ i := a!(i-1) | i <- [1..n] ];\nresult a;\n",
    );
    let out = hacc(&[&path, "n=4", "--quiet"]);
    assert_eq!(out.status.code(), Some(3), "runtime errors exit 3");
    assert!(String::from_utf8_lossy(&out.stderr).contains("runtime error"));

    // Limit exhaustion: 4, for fuel and memory alike.
    let out = hacc(&["programs/wavefront.hac", "n=8", "--quiet", "--fuel", "3"]);
    assert_eq!(out.status.code(), Some(4), "fuel exhaustion exits 4");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fuel exhausted"), "{stderr}");
    assert!(stderr.contains("limit exceeded"), "{stderr}");

    let out = hacc(&[
        "programs/wavefront.hac",
        "n=8",
        "--quiet",
        "--mem-limit",
        "100",
    ]);
    assert_eq!(out.status.code(), Some(4), "memory exhaustion exits 4");
    assert!(String::from_utf8_lossy(&out.stderr).contains("memory limit"));
}

#[test]
fn generous_limits_do_not_change_the_answer() {
    let plain = hacc(&["programs/wavefront.hac", "n=5", "--quiet"]);
    let limited = hacc(&[
        "programs/wavefront.hac",
        "n=5",
        "--quiet",
        "--fuel",
        "100000",
        "--mem-limit",
        "1000000",
    ]);
    assert_eq!(limited.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&limited.stdout),
        "metering must not perturb results"
    );
}

#[test]
fn injected_fault_is_recovered_and_reported() {
    let clean = hacc(&["programs/wavefront.hac", "n=32", "--quiet"]);
    let faulted = hacc(&[
        "programs/wavefront.hac",
        "n=32",
        "--quiet",
        "--threads",
        "4",
        "--fault-plan",
        "r0c0:panic",
    ]);
    assert_eq!(faulted.status.code(), Some(0), "fault must be absorbed");
    let out = String::from_utf8_lossy(&faulted.stdout);
    assert!(
        out.contains("engine faults: 1"),
        "recovery must be visible: {out}"
    );
    // Modulo the fault report line, the output is identical.
    let sans_fault_line: Vec<&str> = out
        .lines()
        .filter(|l| !l.starts_with("engine faults:"))
        .collect();
    let clean_out = String::from_utf8_lossy(&clean.stdout);
    assert_eq!(
        sans_fault_line.join("\n"),
        clean_out.trim_end(),
        "answer identical despite injected panic"
    );

    let out = hacc(&["programs/wavefront.hac", "n=8", "--fault-plan", "r0c0:zap"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "bad fault plans are usage errors"
    );
}

#[test]
fn environment_variables_do_not_change_a_run() {
    // Fault plans and deadline rates are flags only: a run under
    // look-alike variables is byte-identical to one without them.
    let run = |extra: &[&str], var: Option<(&str, &str)>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_hacc"));
        cmd.args([
            "programs/wavefront.hac",
            "n=32",
            "--quiet",
            "--threads",
            "4",
        ])
        .args(extra);
        if let Some((k, v)) = var {
            cmd.env(k, v);
        }
        let out = cmd.output().expect("spawn hacc");
        let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
        (out.status.code(), text(&out.stdout), text(&out.stderr))
    };
    let plain = run(&[], None);
    assert_eq!(plain.0, Some(0));
    assert_eq!(run(&[], Some(("HAC_FAULT_PLAN", "r0c0:panic"))), plain);
    let deadline = ["--deadline-ms", "2"];
    assert_eq!(
        run(&deadline, Some(("HAC_OPS_PER_MS", "1"))),
        run(&deadline, None)
    );
}

#[test]
fn emit_limp_flag() {
    let out = hacc(&[
        "programs/sor.hac",
        "n=5",
        "--quiet",
        "--no-run",
        "--emit",
        "limp",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("limp for update `b` (in place)"),
        "{stdout}"
    );
    assert!(stdout.contains("for i = 2"), "{stdout}");
}

#[test]
fn scalar_reductions_printed() {
    let path = scratch_file(
        "cli_reduce_test.hac",
        "param n;\ninput u (1,n);\nlet s = sum [ u!k | k <- [1..n] ];\n\
         let a = array (1,1) [ 1 := s ];\nresult a;\n",
    );
    let out = hacc(&[&path, "n=4", "--quiet", "--fill", "zero"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("scalar `s` = 0"), "{stdout}");
}

#[test]
fn zero_threads_is_a_usage_error() {
    let out = hacc(&["programs/wavefront.hac", "n=6", "--threads", "0"]);
    assert_eq!(out.status.code(), Some(1), "--threads 0 exits 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--threads needs a positive integer"),
        "{stderr}"
    );
    // The serve subcommands reject it the same way.
    let out = hacc(&["serve", "--threads", "0"]);
    assert_eq!(out.status.code(), Some(1));
    let out = hacc(&["batch", "jobs.json", "--workers", "0"]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn deadline_converts_to_fuel_without_reading_the_clock() {
    // A 1 op/ms rate turns a 2 ms deadline into 2 fuel: guaranteed
    // exhaustion, reproducibly, because the rate is injected — the
    // run itself involves no clock at all.
    let run = || {
        hacc(&[
            "programs/wavefront.hac",
            "n=8",
            "--quiet",
            "--deadline-ms",
            "2",
            "--ops-per-ms",
            "1",
        ])
    };
    let (a, b) = (run(), run());
    assert_eq!(a.status.code(), Some(4), "deadline-derived fuel exhausts");
    let stderr = String::from_utf8_lossy(&a.stderr);
    assert!(stderr.contains("fuel exhausted"), "{stderr}");
    assert_eq!(a.stdout, b.stdout, "bit-identical across runs");
    assert_eq!(a.stderr, b.stderr);

    // A huge rate completes.
    let out = hacc(&[
        "programs/wavefront.hac",
        "n=8",
        "--quiet",
        "--deadline-ms",
        "1000",
        "--ops-per-ms",
        "1000000",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn a_zero_deadline_rate_is_a_usage_error() {
    // Zero ops per millisecond would turn every deadline into an empty
    // budget: both parsers refuse it instead of clamping it to 1.
    let single = [
        "programs/wavefront.hac",
        "n=4",
        "--quiet",
        "--deadline-ms",
        "3",
        "--ops-per-ms",
        "0",
    ];
    for args in [&single[..], &["batch", "--ops-per-ms", "0"]] {
        let out = hacc(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: usage errors exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--ops-per-ms needs a positive integer, got `0`"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn batch_subcommand_serves_jobs_with_statuses() {
    let jobs = r#"{"jobs": [
        {"id": "a", "file": "programs/wavefront.hac", "params": {"n": 6}, "fuel": 1000},
        {"id": "b", "file": "programs/wavefront.hac", "params": {"n": 6}, "fuel": 1000},
        {"id": "tight", "file": "programs/wavefront.hac", "params": {"n": 6}, "fuel": 2}
    ]}"#;
    let path = scratch_file("cli_batch_jobs.json", jobs);
    let out = hacc(&["batch", &path, "--ceiling-fuel", "100000", "--workers", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(r#""id":"a","status":"ok","tenant":null,"admitted":0,"cache":"miss""#),
        "{stdout}"
    );
    assert!(
        stdout.contains(r#""id":"b","status":"ok","tenant":null,"admitted":1,"cache":"hit""#),
        "{stdout}"
    );
    // Wavefront has an exact cost certificate, so the 2-fuel request
    // is proven short at admission and never executes.
    assert!(
        stdout.contains(r#""id":"tight","status":"over-certificate""#),
        "{stdout}"
    );
    assert!(
        stdout.contains("fuel budget 2 < certified cost 41"),
        "{stdout}"
    );
    assert!(stdout.contains("answer_digest"), "{stdout}");
    // a and b ran the identical program: identical digests.
    let digest = |id: &str| -> String {
        let needle = format!(r#""id":"{id}""#);
        let at = stdout.find(&needle).unwrap();
        let rest = &stdout[at..];
        let key = r#""answer_digest":""#;
        let d = rest.find(key).map(|i| &rest[i + key.len()..]).unwrap();
        d[..16].to_string()
    };
    assert_eq!(digest("a"), digest("b"));
}

#[test]
fn batch_summary_reconciles_with_the_responses_under_a_watermark() {
    use hac::serve::json::{self, Json};
    // Each program cold, warm and starved, and an over-ask: past a
    // queue watermark of 10 the first round sheds a dozen requests, and
    // the one resubmission serves all but two of them.
    let mut jobs = Vec::new();
    for p in [
        "dot",
        "jacobi",
        "matmul",
        "matvec",
        "sor",
        "tridiag",
        "wavefront",
    ] {
        let file = format!(r#""file": "programs/{p}.hac", "params": {{"n": 12}}"#);
        jobs.push(format!(r#"{{"id": "{p}-cold", {file}, "fuel": 5000}}"#));
        jobs.push(format!(r#"{{"id": "{p}-warm", {file}, "fuel": 5000}}"#));
        jobs.push(format!(r#"{{"id": "{p}-starved", {file}, "fuel": 3}}"#));
    }
    jobs.push(
        r#"{"id": "over-ask", "file": "programs/wavefront.hac", "params": {"n": 12}, "fuel": 1000000000}"#
            .to_string(),
    );
    let path = scratch_file(
        "cli_batch_watermark.json",
        &format!(r#"{{"jobs": [{}]}}"#, jobs.join(",\n")),
    );
    let out = hacc(&[
        "batch",
        &path,
        "--workers",
        "2",
        "--ceiling-fuel",
        "100000",
        "--ceiling-mem",
        "16777216",
        "--shed-watermark",
        "10",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let resps = json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    let resps = resps.as_arr().expect("an array of responses");
    let count = |key: &str, want: &str| {
        resps
            .iter()
            .filter(|r| r.get(key).and_then(Json::as_str) == Some(want))
            .count()
    };
    let summary = stderr
        .lines()
        .rfind(|l| l.starts_with("batch: ") && l.contains("request(s)"))
        .unwrap_or_else(|| panic!("no summary line: {stderr}"));
    let figure = |label: &str| -> usize {
        let at = summary.find(label).unwrap_or_else(|| panic!("{summary}"));
        let digits = summary[..at].trim_end().rsplit(' ').next().unwrap();
        digits.parse().unwrap_or_else(|_| panic!("{summary}"))
    };
    assert_eq!(figure("hit(s)"), count("cache", "hit"), "{summary}");
    assert_eq!(figure("miss(es)"), count("cache", "miss"), "{summary}");
    assert_eq!(figure("shed,"), count("status", "overloaded"), "{summary}");
    assert_eq!(figure("request(s)"), resps.len(), "{summary}");
    // The watermark did shed, and the resubmission did run.
    assert!(figure("resubmitted") > figure("shed,"), "{summary}");
    assert!(figure("shed,") > 0, "{summary}");
}

/// Arrays too large for `--mem-limit` end in the limit exit code, not
/// in an aborted allocation: an `input` is left unfilled and an
/// `accumArray` is charged before it allocates. 2·10¹³ elements are
/// 1.6·10¹⁴ bytes, past any user address space. `hacc serve` answers
/// such a request with `limit` and serves the next one.
#[test]
fn arrays_past_the_memory_cap_exit_with_the_limit_code() {
    let input = "param n;\ninput a (1, n);\nb = bigupd a [ 1 := 5 ];\nresult b;\n";
    let accum = "param n;\nlet b = accumArray (+) 0 (1, n) [ 1 := 1 | i <- [1..2] ];\nresult b;\n";
    for (name, src) in [("big_input.hac", input), ("big_accum.hac", accum)] {
        let path = scratch_file(name, src);
        let out = hacc(&[
            &path,
            "n=20000000000000",
            "--mem-limit",
            "1000000",
            "--quiet",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(4), "{name}: {stderr}");
        assert!(
            stderr.contains("memory limit of 1000000 bytes exceeded"),
            "{name}: {stderr}"
        );
    }
    let big = r#"{"id":"big","source":"param n;\ninput a (1, n);\nb = bigupd a [ 1 := 5 ];\nresult b;","params":{"n":20000000000000},"mem_bytes":1000000}"#;
    let out = hacc_with_stdin(&["serve"], format!("{big}\n{SERVE_REQUEST}\n").as_bytes());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].contains(r#""status":"limit""#), "{stdout}");
    assert!(lines[1].contains(r#""status":"ok""#), "{stdout}");
}

/// `hacc serve` answers a line that is not UTF-8, or one past
/// `--max-line-bytes`, with a structured rejection and goes on, as the
/// daemon does.
#[test]
fn serve_answers_past_a_line_that_is_not_utf8() {
    let mut input = format!("{SERVE_REQUEST}\n").into_bytes();
    input.extend_from_slice(b"\xff\xfe\n");
    input.extend_from_slice(format!("{SERVE_REQUEST}\n").as_bytes());
    let out = hacc_with_stdin(&["serve"], &input);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(lines[0].contains(r#""status":"ok""#), "{stdout}");
    assert!(lines[1].contains(r#""error":"bad-request""#), "{stdout}");
    assert!(lines[2].contains(r#""status":"ok""#), "{stdout}");

    let short = format!("{{}}\n{SERVE_REQUEST}\n");
    let out = hacc_with_stdin(&["serve", "--max-line-bytes", "20"], short.as_bytes());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].contains(r#""error":"bad-request""#), "{stdout}");
    assert!(lines[1].contains(r#""error":"line-too-long""#), "{stdout}");
}

//! Fixture-based self-tests: every rule must fire on its violation
//! fixture (exact lines) and stay silent on the torture fixture.

use kdc_lint::rules::LockOrder;
use kdc_lint::{check_source, Workspace};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The repo's real lock manifest, so fixture expectations track it.
fn repo_lock_order() -> LockOrder {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../LOCK_ORDER.md");
    LockOrder::parse(&std::fs::read_to_string(manifest).expect("LOCK_ORDER.md"))
}

fn lines_of(findings: &[kdc_lint::rules::Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn l1_no_panic_fixture() {
    let src = fixture("l1_panic.rs");
    let findings = check_source("crates/service/src/fixture.rs", &src, &LockOrder::default());
    let lines = lines_of(&findings, "no_panic");
    assert_eq!(lines.len(), 5, "exactly the five violations: {findings:?}");
    for (line, what) in lines
        .iter()
        .zip(["unwrap", "expect", "panic", "todo", "unimplemented"])
    {
        let f = findings.iter().find(|f| f.line == *line).unwrap();
        assert!(f.message.contains(what), "line {line}: {}", f.message);
    }
    // The allow-comment site and the unwrap_or_else site are silent.
    assert!(
        !findings
            .iter()
            .any(|f| f.snippet.contains("unwrap_or_else")),
        "unwrap_or_else is not unwrap"
    );
    // Outside daemon scope the same file is clean.
    let elsewhere = check_source("crates/graph/src/fixture.rs", &src, &LockOrder::default());
    assert!(lines_of(&elsewhere, "no_panic").is_empty());
}

#[test]
fn l2_no_unsafe_fixture() {
    let src = fixture("l2_unsafe.rs");
    // As a library crate root: the unsafe token AND the missing forbid.
    let findings = check_source("crates/graph/src/lib.rs", &src, &LockOrder::default());
    let lines = lines_of(&findings, "no_unsafe");
    assert_eq!(lines.len(), 2, "{findings:?}");
    assert!(findings
        .iter()
        .any(|f| f.message.contains("forbid(unsafe_code)")));
    assert!(findings.iter().any(|f| f.snippet.contains("unsafe {")));
    // As a non-root module: only the token finding remains.
    let findings = check_source("crates/graph/src/other.rs", &src, &LockOrder::default());
    assert_eq!(lines_of(&findings, "no_unsafe").len(), 1);
}

#[test]
fn l3_lock_order_fixture() {
    let src = fixture("l3_lock.rs");
    let findings = check_source("crates/service/src/fixture.rs", &src, &repo_lock_order());
    let lines = lines_of(&findings, "lock_order");
    assert_eq!(lines.len(), 2, "inversion + recursion only: {findings:?}");
    let inversion = findings.iter().find(|f| f.line == lines[0]).unwrap();
    assert!(
        inversion.message.contains("rank 1") && inversion.message.contains("rank-2"),
        "{}",
        inversion.message
    );
    // Without a manifest the rule is inert.
    let silent = check_source("crates/service/src/fixture.rs", &src, &LockOrder::default());
    assert!(lines_of(&silent, "lock_order").is_empty());
}

#[test]
fn l4_hot_path_alloc_fixture() {
    let src = fixture("l4_alloc.rs");
    let findings = check_source("crates/core/src/fixture.rs", &src, &LockOrder::default());
    let lines = lines_of(&findings, "hot_path_alloc");
    assert_eq!(lines.len(), 5, "{findings:?}");
    for what in ["collect", "to_vec", "with_capacity", "new", "format"] {
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "hot_path_alloc" && f.message.contains(what)),
            "missing {what}: {findings:?}"
        );
    }
    // The clean hot-path fn and the cold fn contribute nothing.
    assert!(!findings.iter().any(|f| f.snippet.contains("cold_path")));
}

#[test]
fn l5_doc_errors_fixture() {
    let src = fixture("l5_doc.rs");
    let findings = check_source("crates/api/src/fixture.rs", &src, &LockOrder::default());
    let lines = lines_of(&findings, "doc_errors");
    assert_eq!(lines.len(), 1, "{findings:?}");
    let f = findings.iter().find(|f| f.rule == "doc_errors").unwrap();
    assert!(f.message.contains("parse_thing"), "{}", f.message);
    // Outside crates/api the rule does not apply.
    let elsewhere = check_source("crates/core/src/fixture.rs", &src, &LockOrder::default());
    assert!(lines_of(&elsewhere, "doc_errors").is_empty());
}

#[test]
fn l6_metric_names_fixture() {
    let src = fixture("l6_metric.rs");
    let findings = check_source("crates/obs/src/fixture.rs", &src, &LockOrder::default());
    let lines = lines_of(&findings, "metric_names");
    assert_eq!(lines.len(), 4, "exactly the four violations: {findings:?}");
    for what in [
        "session_hits_total",
        "kdc_hits",
        "kdc_queue_Depth",
        "kdc__hits_total",
    ] {
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "metric_names" && f.message.contains(what)),
            "missing {what}: {findings:?}"
        );
    }
    // Valid names, definitions, dynamic names, the allow comment and the
    // test region contribute nothing.
    assert!(
        !findings
            .iter()
            .any(|f| f.message.contains("kdc_session_hits_total")
                || f.message.contains("legacy_scrape_name")),
        "{findings:?}"
    );
}

#[test]
fn lexer_torture_is_clean_under_every_rule() {
    let src = fixture("lexer_torture.rs");
    // Daemon scope + crate root + lock manifest: the harshest combination.
    let findings = check_source("crates/service/src/fixture.rs", &src, &repo_lock_order());
    assert!(findings.is_empty(), "false positives: {findings:?}");
}

#[test]
fn binary_fails_naming_rule_file_and_line() {
    // End-to-end through the real binary on a throwaway mini-tree, so the
    // CI contract (nonzero exit, rule+file+line in output) is pinned.
    let dir = kdc_graph::io::fresh_temp_dir("lint_fixture");
    let src_dir = dir.join("crates/service/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write");
    std::fs::write(
        src_dir.join("bad.rs"),
        "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    )
    .expect("write");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_kdc_lint"))
        .args(["check", "--root"])
        .arg(&dir)
        .output()
        .expect("run kdc_lint");
    assert!(!out.status.success(), "must exit nonzero on findings");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("no_panic"), "{stdout}");
    assert!(stdout.contains("crates/service/src/bad.rs:2"), "{stdout}");

    // And --json round-trips the same finding machine-readably.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_kdc_lint"))
        .args(["check", "--json", "--root"])
        .arg(&dir)
        .output()
        .expect("run kdc_lint --json");
    std::fs::remove_dir_all(&dir).ok();
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('['), "{stdout}");
    assert!(stdout.contains("\"rule\": \"no_panic\""), "{stdout}");
    assert!(
        stdout.contains("\"file\": \"crates/service/src/bad.rs\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"line\": 2"), "{stdout}");
}

#[test]
fn whole_tree_is_clean() {
    // The acceptance gate: zero findings on the committed tree. Uses the
    // same entry point as the CI job.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::open(&root).expect("workspace");
    assert!(
        ws.lock_order().len() >= 8,
        "LOCK_ORDER.md must declare the hierarchy (incl. the obs registry)"
    );
    let findings = ws.check_all().expect("lint run");
    assert!(
        findings.is_empty(),
        "tree has findings:\n{}",
        kdc_lint::render_text(&findings)
    );
}

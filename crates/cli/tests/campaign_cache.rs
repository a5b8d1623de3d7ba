//! `nonfifo campaign --cache`: the cache file is an append-only log. A
//! second campaign only appends its fresh runs, a warm replay leaves the
//! file byte-identical, and a file in an older format or a garbage line is
//! a clean error naming the file and line, with no usage text.

use nonfifo_campaign::{CampaignPlan, WireMsg};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_nonfifo");

fn plan(seeds: &str) -> String {
    format!(
        "scenario cli-cache\nprotocols abp seqnum\ndisciplines fifo prob:0.3\nmessages 6\nseeds {seeds}\n"
    )
}

fn temp(name: &str) -> String {
    let path = std::env::temp_dir()
        .join(format!("nonfifo-cli-{name}-{}", std::process::id()))
        .to_string_lossy()
        .into_owned();
    std::fs::remove_file(&path).ok();
    path
}

fn campaign(plan_path: &str, cache: &str) -> Output {
    Command::new(BIN)
        .args(["campaign", plan_path, "--cache", cache])
        .output()
        .unwrap()
}

/// The `cache  :` line's hit count.
fn hits(out: &Output) -> usize {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("cache  :"))
        .expect("a cache line");
    line["cache  :".len()..]
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

/// Stdout without the lines that name threads, cache hits, timing or the
/// cache file: the report table and the outcome line.
fn table(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| {
            !["campaign:", "cache  :", "timing :", "cache written"]
                .iter()
                .any(|p| l.starts_with(p))
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn a_second_campaign_appends_and_a_warm_replay_writes_nothing() {
    let plan_path = temp("append.campaign");
    let cache = temp("append.ndjson");
    std::fs::write(&plan_path, plan("0..2")).unwrap();
    assert!(campaign(&plan_path, &cache).status.success());
    let first = std::fs::read(&cache).unwrap();
    assert_eq!(first.iter().filter(|&&b| b == b'\n').count(), 8);

    std::fs::write(&plan_path, plan("0..3")).unwrap();
    let out = campaign(&plan_path, &cache);
    assert!(out.status.success());
    assert_eq!(hits(&out), 8);
    let second = std::fs::read(&cache).unwrap();
    assert!(
        second.starts_with(&first),
        "the first campaign's bytes stay put"
    );
    let text = String::from_utf8(second.clone()).unwrap();
    assert_eq!(text.lines().count(), 12, "one line per fresh run");
    for line in text.lines() {
        assert!(matches!(
            WireMsg::parse_line(line).unwrap(),
            WireMsg::Run { .. }
        ));
    }

    let out = campaign(&plan_path, &cache);
    assert!(out.status.success());
    assert_eq!(hits(&out), 12);
    assert_eq!(std::fs::read(&cache).unwrap(), second, "warm replay wrote");

    // Cut the log mid-line, as a process killed mid-append would. The next
    // run drops the torn tail, re-runs only that run, renders the same
    // table and writes the line back.
    std::fs::write(&cache, &second[..second.len() - 100]).unwrap();
    let torn = campaign(&plan_path, &cache);
    assert!(torn.status.success());
    assert_eq!(hits(&torn), 11);
    assert_eq!(table(&torn), table(&out), "recovered table");
    let repaired = std::fs::read_to_string(&cache).unwrap();
    assert_eq!(repaired.lines().count(), 12, "the cut run is written back");
    std::fs::remove_file(&plan_path).ok();
    std::fs::remove_file(&cache).ok();
}

/// Two contracts at once: corrupted runs resolve from the fingerprint
/// cache, and the report table does not depend on the thread count. Only
/// the banner, the cache ratio, the timing and the cache-written lines may
/// differ between a cold run at one thread and a warm one at eight.
#[test]
fn a_warm_stabilize_campaign_at_8_threads_renders_the_cold_table() {
    let plan = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../campaigns/stabilize.campaign"
    );
    let cache = temp("stabilize.ndjson");
    let run = |threads: &str| {
        Command::new(BIN)
            .args(["campaign", plan, "--threads", threads, "--cache", &cache])
            .output()
            .unwrap()
    };
    let cold = run("1");
    let warm = run("8");
    std::fs::remove_file(&cache).ok();
    assert!(cold.status.success() && warm.status.success());
    assert_eq!(hits(&cold), 0);
    let runs = CampaignPlan::parse(&std::fs::read_to_string(plan).unwrap())
        .unwrap()
        .expand()
        .len();
    assert_eq!(hits(&warm), runs, "every run replays");
    assert_eq!(table(&warm), table(&cold));
}

#[test]
fn an_old_whole_document_cache_exits_1_with_its_version_and_line() {
    let plan_path = temp("v1.campaign");
    let cache = temp("v1.json");
    std::fs::write(&plan_path, plan("0..2")).unwrap();
    let old = "{\"schema_version\":1,\"entries\":[]}";
    std::fs::write(&cache, old).unwrap();
    let out = campaign(&plan_path, &cache);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let first = stderr.lines().next().unwrap_or("");
    assert!(first.contains("line 1"), "{first}");
    assert!(first.contains("schema_version 1"), "{first}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(
        std::fs::read_to_string(&cache).unwrap(),
        old,
        "left as found"
    );
    std::fs::remove_file(&plan_path).ok();
    std::fs::remove_file(&cache).ok();
}

#[test]
fn a_cache_of_older_run_lines_exits_1_naming_the_line() {
    let plan_path = temp("wire1.campaign");
    let cache = temp("wire1.json");
    std::fs::write(&plan_path, plan("0..2")).unwrap();
    // A run line as the version-1 codec wrote it, metrics by name.
    let old = "{\"v\":1,\"type\":\"run\",\"index\":0,\"spec\":7,\"run\":{\"outcome\":\
               \"delivered\",\"fingerprint\":1,\"steps\":2,\"fwd_sends\":3,\"delivered\":1,\
               \"metrics\":{\"schema_version\":1,\"counters\":{\"chan.fwd.sends\":3}}}}\n";
    std::fs::write(&cache, old).unwrap();
    let out = campaign(&plan_path, &cache);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let first = stderr.lines().next().unwrap_or("");
    assert!(first.contains("line 1"), "{first}");
    assert!(first.contains("wire schema_version 1"), "{first}");
    assert!(first.contains("delete the file"), "{first}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(
        std::fs::read_to_string(&cache).unwrap(),
        old,
        "left as found"
    );
    std::fs::remove_file(&plan_path).ok();
    std::fs::remove_file(&cache).ok();
}

/// A garbage line is a bad file, not a bad invocation: `campaign` and
/// `serve` name the file and the line, exit 1, and print no usage text.
#[test]
fn a_garbage_cache_line_exits_1_naming_the_file_without_usage() {
    let plan_path = temp("garbage.campaign");
    let cache = temp("garbage.json");
    std::fs::write(&plan_path, plan("0..2")).unwrap();
    std::fs::write(&cache, "garbage\n").unwrap();
    let serve = Command::new(BIN)
        .args(["serve", "--addr", "127.0.0.1:0", "--cache", &cache])
        .output()
        .unwrap();
    for out in [campaign(&plan_path, &cache), serve] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        let first = stderr.lines().next().unwrap_or("");
        assert!(first.contains(&cache), "{first}");
        assert!(first.contains("line 1"), "{first}");
        assert!(!stderr.contains("usage:"), "{stderr}");
    }
    std::fs::remove_file(&plan_path).ok();
    std::fs::remove_file(&cache).ok();
}

#[test]
fn oversized_and_overflowing_seed_plans_are_usage_errors() {
    let plan_path = temp("huge.campaign");
    for (seeds, needle) in [
        (
            "0..99999999999",
            "plan line 1: scenario \"cli-cache\" takes the plan past 1048576 runs",
        ),
        (
            "18446744073709551615",
            "plan line 5: seeds: 18446744073709551615 is past the largest seed",
        ),
    ] {
        std::fs::write(&plan_path, plan(seeds)).unwrap();
        let out = Command::new(BIN)
            .args(["campaign", &plan_path])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        let first = stderr.lines().next().unwrap_or("");
        assert!(first.contains(needle), "{first}");
    }
    std::fs::remove_file(&plan_path).ok();
}

//! The name registry in EXPERIMENTS.md ("Metric & span name registry")
//! cannot drift from the code, in either direction.
//!
//! Forward: a chaos schedule — crash, flap, drain, join, at-rest and
//! in-flight corruption, a loss window — runs with recording fully on, and
//! every counter, histogram, trace-event and era-note name it emits
//! (instance numbers normalised to `<N>` / `<q>` / `<op>`) must be in the
//! tables. Reverse: every name in the tables must be spelled — itself or a
//! dot-suffix of it, since instance prefixes are built — as a string literal
//! in the non-test source of the layers, so a documented name nothing can
//! emit fails too.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::rc::Rc;
use std::time::Duration;

use fabric::{FaultPlan, MembershipEvent};
use rstore::{
    AllocOptions, Cluster, ClusterConfig, KvConfig, KvTable, MasterConfig, RStoreClient,
    ServerConfig,
};

/// The four kinds of name, as the tables' headings introduce them.
const COUNTERS: &str = "Counters";
const HISTOGRAMS: &str = "Histograms";
const TRACE_EVENTS: &str = "Trace events";
const ERA_NOTES: &str = "Era notes";
const KINDS: [&str; 4] = [COUNTERS, HISTOGRAMS, TRACE_EVENTS, ERA_NOTES];

fn repo(path: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path)
}

/// Expands `a.{b,c}_ns` into `a.b_ns`, `a.c_ns`.
fn expand(name: &str, out: &mut Vec<String>) {
    let Some((open, close)) = name.find('{').zip(name.find('}')) else {
        out.push(name.to_owned());
        return;
    };
    for alt in name[open + 1..close].split(',') {
        expand(
            &format!("{}{}{}", &name[..open], alt.trim(), &name[close + 1..]),
            out,
        );
    }
}

/// The names each table documents, by kind. A table's names are the
/// backticked tokens of its first column; a token that starts with `.`
/// replaces the last component of the name before it.
fn documented() -> BTreeMap<&'static str, BTreeSet<String>> {
    let text = std::fs::read_to_string(repo("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let section = text
        .split("\n## ")
        .find(|s| s.starts_with("Metric & span name registry"))
        .expect("the registry section");
    let mut tables: BTreeMap<&'static str, BTreeSet<String>> = BTreeMap::new();
    let mut kind = None;
    for line in section.lines() {
        if let Some(k) = KINDS.iter().find(|k| line.starts_with(**k)) {
            kind = Some(*k);
        }
        let Some(cell) = line.strip_prefix("| `").and_then(|l| l.split('|').next()) else {
            continue;
        };
        let names = tables
            .entry(kind.expect("a table follows its heading"))
            .or_default();
        let mut prev = String::new();
        for token in cell.split('`').step_by(2).filter(|t| !t.is_empty()) {
            let full = match token.strip_prefix('.') {
                Some(last) => format!("{}.{last}", &prev[..prev.rfind('.').expect("a prefix")]),
                None => token.to_owned(),
            };
            let mut expanded = Vec::new();
            expand(&full, &mut expanded);
            prev = expanded.last().expect("at least itself").clone();
            names.extend(expanded);
        }
    }
    tables
}

/// `fabric.link3.tx_bytes` → `fabric.link<N>.tx_bytes`, and likewise
/// `rdma.n<N>.qp<q>.*` and `ops.<op>.*`.
fn normalise(name: &str) -> String {
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let parts: Vec<&str> = name.split('.').collect();
    let mut out = Vec::with_capacity(parts.len());
    for (i, part) in parts.iter().enumerate() {
        let renamed = match (parts[0], i) {
            ("fabric", 1) if part.strip_prefix("link").is_some_and(digits) => "link<N>",
            ("rdma", 1) if part.strip_prefix('n').is_some_and(digits) => "n<N>",
            ("rdma", 2) if part.strip_prefix("qp").is_some_and(digits) => "qp<q>",
            ("ops", 1) => "<op>",
            _ => part,
        };
        out.push(renamed);
    }
    out.join(".")
}

/// Runs the chaos schedule with recording fully on and returns every name
/// it emitted, by kind.
fn emitted() -> BTreeMap<&'static str, BTreeSet<String>> {
    let sim = sim::Sim::new();
    let rec = sim.recorder();
    // From time zero, so registration is on record too; the ring must hold
    // the whole run (checked below), or a rare name could be evicted.
    rec.enable(sim::Level::Spans(sim::ForensicsConfig::default()), 1 << 19);
    let fast = ClusterConfig::fast_detection(4);
    let cluster = Cluster::boot_on(
        sim.clone(),
        ClusterConfig {
            clients: 2,
            master: MasterConfig {
                scrub: true,
                scrub_interval: Duration::from_millis(30),
                rebalance: true,
                rebalance_interval: Duration::from_millis(50),
                ..fast.master
            },
            server: ServerConfig {
                donate: 256 << 10,
                ..fast.server
            },
            ..fast
        },
    )
    .expect("boot");
    let fabric = cluster.fabric.clone();
    let metrics = fabric.metrics().clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let nodes: Vec<fabric::NodeId> = cluster.servers.iter().map(|s| s.node()).collect();
    let dark = cluster.add_dark_server();
    let dark_node = dark.node();

    let cluster = Rc::new(cluster);
    let (hook_cluster, hook_sim) = (cluster.clone(), sim.clone());
    fabric.set_membership_hook(Rc::new(move |ev| match ev {
        MembershipEvent::Join(_) => {
            hook_cluster.start_server(&dark).expect("standby starts");
        }
        MembershipEvent::Drain(n) => {
            let (m, s) = (hook_cluster.master.clone(), hook_sim.clone());
            hook_sim.spawn(async move {
                // A drain that loses a race with the churn is retried.
                while m.drain(n).await.is_err() {
                    s.sleep(Duration::from_millis(50)).await;
                }
            });
        }
    }));

    let ms = Duration::from_millis;
    FaultPlan::new(0x5EED)
        .flip_window(ms(40), ms(60), 0.5)
        .corrupt_at(ms(100), nodes[0], 64)
        .loss_window(ms(150), ms(200), 0.05)
        .crash_at(ms(250), nodes[1])
        .join_at(ms(300), dark_node)
        .flap(ms(450), nodes[2], ms(120))
        .drain_at(ms(700), nodes[3])
        .install(&fabric);

    // Era notes keep the last 64 — a drain's seals alone are more — so
    // their names are gathered as the run goes.
    let notes = Rc::new(RefCell::new(BTreeSet::new()));
    let (gather, gather_rec, gather_sim) = (notes.clone(), rec.clone(), sim.clone());
    sim.spawn(async move {
        loop {
            gather_sim.sleep(Duration::from_millis(5)).await;
            let seen = gather_rec.era_notes();
            gather
                .borrow_mut()
                .extend(seen.iter().map(|n| format!("{}/{}", n.cat, n.name)));
        }
    });

    let s = sim.clone();
    sim.block_on(async move {
        let a = RStoreClient::connect(&devs[0], master).await.unwrap();
        let b = RStoreClient::connect(&devs[1], master).await.unwrap();
        let opts = AllocOptions {
            stripe_size: 4096,
            replicas: 2,
            ..AllocOptions::default()
        };
        let ck_opts = AllocOptions {
            checksums: true,
            ..opts
        };
        a.alloc("reg/plain", 64 << 10, opts).await.unwrap();
        a.alloc("reg/ck", 64 << 10, ck_opts).await.unwrap();
        let kv_cfg = KvConfig {
            buckets: 64,
            slot_bytes: 128,
            max_probe: 16,
            opts,
        };
        let kv = KvTable::create(&a, "reg/kv", kv_cfg).await.unwrap();
        // A hint that another handle's delete and re-insert made stale: its
        // lost CAS chases.
        let other = KvTable::open(&b, "reg/kv", 128, 16).await.unwrap();
        kv.put(b"chased", b"1").await.unwrap();
        other.get(b"chased").await.unwrap();
        kv.delete(b"chased").await.unwrap();
        kv.put(b"chased", b"2").await.unwrap();
        other.put(b"chased", b"3").await.unwrap();
        drop((kv, other));

        // Two clients, every op type, errors ignored: mid-fault failures
        // are the point. Region handles are mapped once and kept, so that
        // repair, rebalance and drain move extents out from under them.
        let until = s.now() + ms(1100);
        let workers: Vec<_> = [a, b]
            .into_iter()
            .enumerate()
            .map(|(w, c)| {
                let s = s.clone();
                s.clone().spawn(async move {
                    let buf = c.device().alloc(8192).unwrap();
                    let plain = c.map("reg/plain").await.unwrap();
                    let ck = c.map("reg/ck").await.unwrap();
                    let mut kv = KvTable::open(&c, "reg/kv", 128, 16).await.unwrap();
                    let mut i = w as u64;
                    while s.now() < until {
                        i += 2;
                        let off = (i % 8) * 4096;
                        let _ = plain.write(off, &[i as u8; 100]).await;
                        let _ = plain.write_from(off, buf).await;
                        let _ = plain.read(off, 8192).await;
                        let pair = [(0, buf.slice(0, 64)), (8192, buf.slice(64, 64))];
                        let _ = plain.read_into_many(&pair).await;
                        let _ = ck.write(off, &[i as u8; 4096]).await;
                        let _ = ck.read(off, 4096).await;
                        let key = format!("k{}", i % 16);
                        let mut ok = kv.put(key.as_bytes(), &[i as u8; 32]).await.is_ok();
                        ok &= kv.get(key.as_bytes()).await.is_ok();
                        ok &= kv.multi_get(&[b"k0", b"k1", b"k2"]).await.is_ok();
                        if i.is_multiple_of(5) {
                            ok &= kv.delete(key.as_bytes()).await.is_ok();
                        }
                        if !ok {
                            if let Ok(t) = KvTable::open_degraded(&c, "reg/kv", 128, 16).await {
                                kv = t;
                            }
                        }
                        let _ = c.stats().await;
                        let _ = c.cluster_stats().await;
                        s.sleep(ms(3)).await;
                    }
                    let _ = c.free("reg/ck").await;
                })
            })
            .collect();
        sim::join_all(workers).await;
        // Let repair and the rebalancer finish what the faults started.
        s.sleep(ms(300)).await;
    });
    assert_eq!(rec.evicted(), 0, "the event ring must hold the whole run");

    let mut names: BTreeMap<&'static str, BTreeSet<String>> = BTreeMap::new();
    let mut emit = |kind, name: &str| names.entry(kind).or_default().insert(normalise(name));
    for name in metrics.counter_names() {
        emit(COUNTERS, &name);
    }
    for name in metrics.histogram_names() {
        emit(HISTOGRAMS, &name);
    }
    for event in rec.events() {
        emit(TRACE_EVENTS, event.name);
    }
    for note in notes.borrow().iter() {
        emit(ERA_NOTES, note);
    }
    names
}

#[test]
fn every_emitted_name_is_documented() {
    let (emitted, documented) = (emitted(), documented());
    // The schedule must keep reaching the rare corners, or this test checks
    // less than it says.
    for (kind, rare) in [
        (COUNTERS, "fabric.fault.flip_injected"),
        (COUNTERS, "rstore.desc.refresh"),
        (COUNTERS, "rebalance.extents"),
        (COUNTERS, "drain.bytes"),
        (COUNTERS, "optrace.bundles"),
        (COUNTERS, "kv.lock.chase"),
        (HISTOGRAMS, "rstore.ctrl_latency.cluster_stats"),
        (TRACE_EVENTS, "fabric.fault.join"),
        (TRACE_EVENTS, "fabric.drop.injected"),
        (TRACE_EVENTS, "rdma.corrupt.inflight"),
        (TRACE_EVENTS, "rdma.qp_error"),
        (TRACE_EVENTS, "rstore.corrupt.mark"),
        (TRACE_EVENTS, "rstore.migrate.extent"),
        (TRACE_EVENTS, "rstore.repair.extent"),
        (TRACE_EVENTS, "rstore.drain"),
        (ERA_NOTES, "fault/drain"),
        (ERA_NOTES, "lease/server_expired"),
        (ERA_NOTES, "repair/extents_repaired"),
        (ERA_NOTES, "migrate/extent_sealed"),
    ] {
        assert!(
            emitted[kind].contains(rare),
            "the chaos schedule no longer emits {rare} ({kind})"
        );
    }
    let mut missing = Vec::new();
    for (kind, names) in &emitted {
        for name in names {
            if !documented.get(kind).is_some_and(|t| t.contains(name)) {
                missing.push(format!("{kind}: {name}"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "emitted but absent from EXPERIMENTS.md's registry tables:\n  {}",
        missing.join("\n  ")
    );
}

/// Every string literal in the non-test source of `dir` (recursively).
fn literals(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("source dir") {
        let path = entry.expect("entry").path();
        if path.is_dir() {
            literals(&path, out);
            continue;
        }
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("source file");
        let code = text
            .split("\n#[cfg(test)]\nmod ")
            .next()
            .expect("a first part");
        // A lexer just good enough to pair quotes: it skips line comments
        // and char literals, and honours escapes inside strings.
        let bytes = code.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'/' if bytes.get(i + 1) == Some(&b'/') => {
                    i += code[i..].find('\n').unwrap_or(code.len() - i);
                }
                b'\'' if bytes.get(i + 1) == Some(&b'\\') => {
                    i += 2 + code[i + 2..].find('\'').expect("a char literal closes") + 1;
                }
                b'\'' if bytes.get(i + 2) == Some(&b'\'') => i += 3,
                b'"' => {
                    let start = i + 1;
                    i = start;
                    while bytes[i] != b'"' {
                        i += 1 + usize::from(bytes[i] == b'\\');
                    }
                    out.insert(code[start..i].to_owned());
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }
}

#[test]
fn every_documented_name_is_spelled_in_the_source() {
    let mut spelled = BTreeSet::new();
    for layer in ["sim", "fabric", "rdma", "core", "bench"] {
        literals(&repo(&format!("crates/{layer}/src")), &mut spelled);
    }
    let mut unspelled = Vec::new();
    for (kind, names) in documented() {
        for name in names {
            // An era note is `cat/name`, spelled as two literals; any other
            // name as itself or — behind a built instance prefix — as one
            // of its dot-suffixes.
            let found = match name.split_once('/') {
                Some((cat, note)) => spelled.contains(cat) && spelled.contains(note),
                None => name
                    .match_indices('.')
                    .map(|(dot, _)| &name[dot + 1..])
                    .chain([name.as_str()])
                    .any(|suffix| spelled.contains(suffix)),
            };
            if !found {
                unspelled.push(format!("{kind}: {name}"));
            }
        }
    }
    assert!(
        unspelled.is_empty(),
        "documented in EXPERIMENTS.md but spelled nowhere in the source:\n  {}",
        unspelled.join("\n  ")
    );
}

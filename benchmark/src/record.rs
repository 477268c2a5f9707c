//! What one pass process reports to the orchestrating process, and the
//! line format that carries it over the child's standard output: one
//! `name value` line per field (a registry field the program did not emit
//! has no line), latencies as one line per op kind.

use std::collections::BTreeMap;

use crate::host::{HostCost, Usage};
use crate::workloads::{Chaos, Pass, Registry};

/// The result of one measured pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PassRecord {
    pub pass: u32,
    pub traced: bool,
    /// Wall ns from process start to the start of the measured pass: boot,
    /// alloc, load, open, warm-up.
    pub setup_ns: u64,
    /// Virtual ns the traffic took.
    pub virt_ns: u64,
    pub attempts: u64,
    pub errors: u64,
    pub stale_reads: u64,
    pub payload_bytes: u64,
    pub host: HostCost,
    pub peak_rss_kb: u64,
    pub live_tasks_end: u64,
    pub registry: Registry,
    pub chaos: Option<Chaos>,
    /// The workload's op kinds, and the virtual latency (ns) of every op of
    /// each kind.
    pub kinds: Vec<String>,
    pub lat_ns: Vec<Vec<u64>>,
}

impl PassRecord {
    pub fn from_pass(
        index: u32,
        traced: bool,
        setup_ns: u64,
        peak_rss_kb: u64,
        kinds: &[&str],
        pass: &Pass,
    ) -> PassRecord {
        let mut lat_ns = vec![Vec::new(); kinds.len()];
        let mut payload_bytes = 0;
        for rec in pass.logs.iter().flat_map(|l| &l.recs) {
            lat_ns[rec.kind as usize].push(rec.virt_end_ns - rec.virt_start_ns);
            payload_bytes += rec.bytes as u64;
        }
        PassRecord {
            pass: index,
            traced,
            setup_ns,
            virt_ns: pass.virt_end_ns - pass.virt_start_ns,
            attempts: pass.logs.iter().map(|l| l.attempts).sum(),
            errors: pass.logs.iter().map(|l| l.errors).sum(),
            stale_reads: pass.logs.iter().map(|l| l.stale_reads).sum(),
            payload_bytes,
            host: pass.host,
            peak_rss_kb,
            live_tasks_end: pass.live_tasks_end,
            registry: pass.registry.clone(),
            chaos: pass.chaos,
            kinds: kinds.iter().map(|k| k.to_string()).collect(),
            lat_ns,
        }
    }

    pub fn ops(&self) -> u64 {
        self.lat_ns.iter().map(|l| l.len() as u64).sum()
    }

    fn scalars(&self) -> Vec<(&'static str, u64)> {
        let mut out = vec![
            ("pass", self.pass as u64),
            ("traced", self.traced as u64),
            ("setup_ns", self.setup_ns),
            ("virt_ns", self.virt_ns),
            ("attempts", self.attempts),
            ("errors", self.errors),
            ("stale_reads", self.stale_reads),
            ("payload_bytes", self.payload_bytes),
            ("host.user_us", self.host.usage.user_us),
            ("host.sys_us", self.host.usage.sys_us),
            ("host.minflt", self.host.usage.minflt),
            ("host.allocs", self.host.usage.allocs),
            ("host.alloc_bytes", self.host.usage.alloc_bytes),
            ("host.wall_ns", self.host.wall_ns),
            ("peak_rss_kb", self.peak_rss_kb),
            ("live_tasks_end", self.live_tasks_end),
        ];
        if let Some(c) = self.chaos {
            out.push(("chaos.recover_ns", c.recover_ns));
            out.push(("chaos.drain_hosted_bytes", c.drain_hosted_bytes));
        }
        out
    }

    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (name, v) in self.scalars() {
            writeln!(out, "{name} {v}").expect("fmt");
        }
        for (name, v) in self.registry.fields() {
            writeln!(out, "reg.{name} {v}").expect("fmt");
        }
        writeln!(out, "kinds {}", self.kinds.join(" ")).expect("fmt");
        for values in &self.lat_ns {
            out.push_str("lat");
            for v in values {
                write!(out, " {v}").expect("fmt");
            }
            out.push('\n');
        }
        out
    }

    pub fn parse(text: &str) -> Result<PassRecord, String> {
        let mut fields: BTreeMap<&str, u64> = BTreeMap::new();
        let mut lat_ns = Vec::new();
        let mut kinds = Vec::new();
        for line in text.lines() {
            let mut words = line.split_ascii_whitespace();
            let Some(name) = words.next() else { continue };
            if name == "kinds" {
                kinds = words.map(str::to_owned).collect();
                continue;
            }
            let mut values = words.map(|w| w.parse::<u64>().map_err(|e| format!("pass record: {name}: {w:?}: {e}")));
            if name == "lat" {
                lat_ns.push(values.collect::<Result<_, _>>()?);
            } else {
                fields.insert(name, values.next().ok_or(format!("pass record: {name} has no value"))??);
            }
        }
        if lat_ns.is_empty() || lat_ns.len() != kinds.len() {
            return Err(format!("pass record: {} latency lines for {} op kinds", lat_ns.len(), kinds.len()));
        }
        let mut take = |name: &str| fields.remove(name).ok_or(format!("pass record: no {name}"));
        let mut r = PassRecord {
            pass: take("pass")? as u32,
            traced: take("traced")? != 0,
            setup_ns: take("setup_ns")?,
            virt_ns: take("virt_ns")?,
            attempts: take("attempts")?,
            errors: take("errors")?,
            stale_reads: take("stale_reads")?,
            payload_bytes: take("payload_bytes")?,
            host: HostCost {
                usage: Usage {
                    user_us: take("host.user_us")?,
                    sys_us: take("host.sys_us")?,
                    minflt: take("host.minflt")?,
                    allocs: take("host.allocs")?,
                    alloc_bytes: take("host.alloc_bytes")?,
                },
                wall_ns: take("host.wall_ns")?,
            },
            peak_rss_kb: take("peak_rss_kb")?,
            live_tasks_end: take("live_tasks_end")?,
            registry: Registry::default(),
            chaos: match take("chaos.recover_ns") {
                Ok(recover_ns) => Some(Chaos { recover_ns, drain_hosted_bytes: take("chaos.drain_hosted_bytes")? }),
                Err(_) => None,
            },
            kinds,
            lat_ns,
        };
        for (name, v) in fields {
            if !name.strip_prefix("reg.").is_some_and(|f| r.registry.set(f, v)) {
                return Err(format!("pass record: unknown field {name:?}"));
            }
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PassRecord {
        let registry = Registry { doorbells: Some(7), rebalance_bytes: Some(0), ..Registry::default() };
        PassRecord {
            pass: 3,
            traced: true,
            setup_ns: 11,
            virt_ns: 12,
            attempts: 13,
            errors: 1,
            stale_reads: 2,
            payload_bytes: 640,
            host: HostCost {
                usage: Usage { user_us: 3_000_000, sys_us: 20_000, minflt: 555, allocs: 1_000, alloc_bytes: 64_000 },
                wall_ns: 3_100_000_000,
            },
            peak_rss_kb: 123_456,
            live_tasks_end: 40,
            registry,
            chaos: None,
            kinds: vec!["get".into(), "put".into(), "scan".into()],
            lat_ns: vec![vec![1603, 1603, 3300], vec![], vec![9]],
        }
    }

    #[test]
    fn text_round_trips() {
        let r = sample();
        assert_eq!(PassRecord::parse(&r.to_text()).unwrap(), r);
        let with_chaos =
            PassRecord { chaos: Some(Chaos { recover_ns: 90_000_000, drain_hosted_bytes: 65_600 }), ..sample() };
        assert_eq!(PassRecord::parse(&with_chaos.to_text()).unwrap(), with_chaos);
        assert_eq!(with_chaos.ops(), 4);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(PassRecord::parse("").is_err());
        let good = sample().to_text();
        assert!(PassRecord::parse(&format!("{good}bogus 3\n")).unwrap_err().contains("bogus"));
        assert!(PassRecord::parse(&format!("{good}reg.no_such_counter 3\n")).is_err());
        assert!(PassRecord::parse(&good.replace("pass 3", "pass three")).is_err());
        assert!(PassRecord::parse(&good.replace("pass 3", "pass")).is_err());
        assert!(PassRecord::parse(&good.replace("virt_ns 12\n", "")).unwrap_err().contains("virt_ns"));
    }
}

//! A real sort and its fluid twin: the same input size, sort parameters and
//! cluster, run once on real records and once on synthetic ones. The real
//! run sorts `teragen(n, FLUID_SEED)`, the very input a fluid run stands for,
//! so the two share their splitters and differ only where a fluid run
//! computes what a real one observes (see [`SortMode`]). Comparing them
//! phase by phase is what ties a fluid paper-scale run to the code that
//! sorts real data.

use rstore::{Cluster, ClusterConfig, RStoreClient, Result};
use workload::{sort_records, teragen};

use crate::distributed::{self, SortConfig, SortMode, SortOutcome, FLUID_SEED};

/// The largest per-phase gap `|fluid − real| / real` a twin may show.
pub const TWIN_TOLERANCE: f64 = 0.02;

/// One real run and its fluid twin.
#[derive(Clone, Debug)]
pub struct Twin {
    /// The real run's output is exactly its sorted input.
    pub verified: bool,
    /// The real run.
    pub real: SortOutcome,
    /// The fluid run.
    pub fluid: SortOutcome,
}

impl Twin {
    /// `(name, real ns, fluid ns)` for sample, partition, shuffle, local
    /// sort and total, in that order.
    pub fn phases(&self) -> [(&'static str, u64, u64); 5] {
        let ns = |o: &SortOutcome| {
            let p = &o.phases;
            [p.sample, p.partition, p.shuffle, p.local_sort, o.total].map(|d| d.as_nanos() as u64)
        };
        let (real, fluid) = (ns(&self.real), ns(&self.fluid));
        let names = ["sample", "partition", "shuffle", "local_sort", "total"];
        std::array::from_fn(|i| (names[i], real[i], fluid[i]))
    }

    /// `(name, |fluid − real| / real)` per phase, in [`Twin::phases`] order.
    pub fn gaps(&self) -> [(&'static str, f64); 5] {
        self.phases()
            .map(|(name, r, f)| (name, r.abs_diff(f) as f64 / r.max(1) as f64))
    }

    /// Every phase is within [`TWIN_TOLERANCE`].
    pub fn agrees(&self) -> bool {
        self.gaps().iter().all(|&(_, gap)| gap <= TWIN_TOLERANCE)
    }
}

/// Sorts `records` records of `teragen(records, FLUID_SEED)` on a cluster
/// booted from `cluster` (one worker per client) and checks the output
/// byte for byte, then runs the fluid twin on a second cluster booted from
/// the same config. `cfg.mode` is ignored.
///
/// # Errors
///
/// Boot, store or IO failures of either run.
pub fn twin(cluster: &ClusterConfig, cfg: &SortConfig, records: u64) -> Result<Twin> {
    let sort = |mode: SortMode| -> Result<(SortOutcome, bool)> {
        let cl = Cluster::boot(cluster.clone())?;
        let (devs, master) = (cl.client_devs.clone(), cl.master_node());
        let cfg = SortConfig {
            mode,
            ..cfg.clone()
        };
        cl.sim.block_on(async move {
            let loader = RStoreClient::connect(&devs[0], master).await?;
            if mode == SortMode::Fluid {
                distributed::create_fluid_input(&loader, &cfg, records).await?;
                return Ok((distributed::run(&devs, master, cfg).await?, false));
            }
            let mut input = teragen(records, FLUID_SEED);
            distributed::load_input(&loader, &cfg, &input).await?;
            let job = cfg.job.clone();
            let outcome = distributed::run(&devs, master, cfg).await?;
            let out = loader.map(&format!("{job}/output")).await?;
            let output = out.read(0, out.size()).await?;
            sort_records(&mut input);
            Ok((outcome, output == input))
        })
    };
    let (real, verified) = sort(SortMode::Real)?;
    let (fluid, _) = sort(SortMode::Fluid)?;
    Ok(Twin {
        verified,
        real,
        fluid,
    })
}

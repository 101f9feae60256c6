//! Shared fixtures for the benchmark suite.
//!
//! Each bench target regenerates one of the paper's evaluation artifacts
//! (Figs. 5–9, Table 5) on a reduced grid — printing the reproduced rows
//! once, then timing the per-cell scheduling pipeline that produces them —
//! plus the ablation and repair-latency benches. Solver, shard and ledger
//! timings live in the service benchmark (`benchmark/`), not here.

use vod_core::{ivsp_solve, SchedCtx};
use vod_cost_model::{Catalog, CostModel, RequestBatch, Schedule};
use vod_topology::builders::{paper_fig4, PaperFig4Config};
use vod_topology::Topology;
use vod_workload::{CatalogConfig, RequestConfig, Workload};

/// A ready-to-schedule environment: topology + workload + cost model.
pub struct Fixture {
    /// The service topology.
    pub topo: Topology,
    /// Catalog + request batch.
    pub catalog: Catalog,
    /// The request batch.
    pub requests: RequestBatch,
    /// The pricing model.
    pub model: CostModel,
}

impl Fixture {
    /// The paper's Fig. 4 environment at the Table 4 baseline, with a
    /// bench-sized workload.
    pub fn paper_baseline() -> Self {
        Self::with(5.0, 0.271, 42)
    }

    /// Parameterised fixture.
    pub fn with(capacity_gb: f64, alpha: f64, seed: u64) -> Self {
        let topo = paper_fig4(&PaperFig4Config { capacity_gb, ..Default::default() });
        let wl = Workload::generate(
            &topo,
            &CatalogConfig::small(120),
            &RequestConfig { requests_per_user: 2, ..RequestConfig::with_alpha(alpha) },
            seed,
        );
        Self { topo, catalog: wl.catalog, requests: wl.requests, model: CostModel::per_hop() }
    }

    /// A scheduling context borrowing this fixture.
    pub fn ctx(&self) -> SchedCtx<'_> {
        SchedCtx::new(&self.topo, &self.model, &self.catalog)
    }

    /// Phase-1 schedule for this fixture.
    pub fn phase1(&self) -> Schedule {
        ivsp_solve(&self.ctx(), &self.requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds() {
        let f = Fixture::paper_baseline();
        assert_eq!(f.topo.storage_count(), 19);
        assert!(!f.requests.is_empty());
        let s = f.phase1();
        assert_eq!(s.delivery_count(), f.requests.len());
    }
}

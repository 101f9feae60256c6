//! The two names the benchmark harness's adapter (`benchmark/src/adapter.rs`)
//! still calls, kept with their old signatures as forwarders to the one
//! entry point of each layer. Nothing else in the workspace calls them;
//! the harness's next revision moves onto [`crate::ivsp_solve`] and
//! [`crate::sorp_solve`], and this file goes.

use crate::{
    ivsp_solve, sorp_solve, GreedyPolicy, PricedSchedule, SchedCtx, SorpConfig, SorpOutcome,
    StorageLedger, EXTERNAL_OCCUPANCY,
};
use vod_cost_model::{RequestBatch, SpaceProfile};
use vod_parallel::ExecMode;
use vod_topology::NodeId;

/// [`ivsp_solve`]; `_mode` is ignored.
#[doc(hidden)]
pub fn ivsp_solve_priced_with(
    ctx: &SchedCtx<'_>,
    batch: &RequestBatch,
    policy: GreedyPolicy,
    _mode: ExecMode,
) -> PricedSchedule {
    ivsp_solve(ctx, batch, policy)
}

/// [`sorp_solve`] over a base ledger holding `external` under
/// [`EXTERNAL_OCCUPANCY`], in list order; `_mode` is ignored.
#[doc(hidden)]
pub fn sorp_solve_priced(
    ctx: &SchedCtx<'_>,
    priced: PricedSchedule,
    cfg: &SorpConfig,
    external: &[(NodeId, SpaceProfile)],
    _mode: ExecMode,
) -> SorpOutcome {
    let mut base = StorageLedger::new(ctx.topo);
    external.iter().for_each(|&(loc, profile)| base.add(loc, EXTERNAL_OCCUPANCY, profile));
    sorp_solve(ctx, priced, cfg, Some(&base))
}

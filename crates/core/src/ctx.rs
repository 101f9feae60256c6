//! Shared scheduling context.

use std::sync::{Arc, OnceLock};
use vod_cost_model::{Catalog, CostModel, Dollars, Request, Schedule, Transfer, VideoSchedule};
use vod_obs::Recorder;
use vod_topology::{NodeId, RouteTable, Topology, TopologyError};

/// Everything the scheduler needs to price and route candidate service
/// plans: the topology, its all-pairs cheapest routes, the cost model, and
/// the video catalog. Routes are derived once from the topology — rebuild
/// the context after re-parameterising link rates.
#[derive(Clone, Debug)]
pub struct SchedCtx<'a> {
    /// The service environment.
    pub topo: &'a Topology,
    /// Cheapest routes over the environment's current `nrate`s.
    pub routes: RouteTable,
    /// The schedule pricing function Ψ.
    pub model: &'a CostModel,
    /// The warehouse's catalog.
    pub catalog: &'a Catalog,
    /// Telemetry sink; the default is the disabled no-op recorder.
    pub recorder: Recorder,
    /// Per `(src, local)` pair, see [`SchedCtx::relay_order`]; each row is
    /// built on first use, so a context that never places a relay cache
    /// (or a short-lived degraded one) pays only for the rows it walks.
    relay: Vec<OnceLock<RelayRow>>,
}

/// What the greedy knows about relaying `src → m → local`, per `m`.
#[derive(Clone, Debug)]
struct RelayRow {
    /// The storages by ascending detour.
    order: Box<[NodeId]>,
    /// `via[m]`: the node sequence `src → m → local`, joined on first use
    /// (see [`SchedCtx::relay_route`]).
    via: Box<[OnceLock<Arc<[NodeId]>>]>,
}

impl<'a> SchedCtx<'a> {
    /// Build a context, computing the route table for `topo`.
    pub fn new(topo: &'a Topology, model: &'a CostModel, catalog: &'a Catalog) -> Self {
        Self::with_routes(topo, RouteTable::build(topo), model, catalog)
    }

    /// Build a context over an explicit route table — e.g. a degraded
    /// table from [`RouteTable::build_avoiding`] that routes around
    /// failed links while pricing stays on the real topology rates.
    pub fn with_routes(
        topo: &'a Topology,
        routes: RouteTable,
        model: &'a CostModel,
        catalog: &'a Catalog,
    ) -> Self {
        let relay = vec![OnceLock::new(); routes.node_count() * routes.node_count()];
        Self { topo, routes, model, catalog, recorder: Recorder::disabled(), relay }
    }

    /// The storages in ascending order of the relay detour
    /// `rate(src, m) + rate(m, local)`, ties by id. A new cache at `m`
    /// fed from `src` for a user at `local` costs the detour times the
    /// shipped bytes plus a term independent of `m`, so this is the
    /// greedy's relay candidates in cost order; by the triangle
    /// inequality no detour undercuts `rate(src, local)`, which `local`
    /// itself attains. Unreachable storages (infinite detour) sort last.
    pub(crate) fn relay_order(&self, src: NodeId, local: NodeId) -> &[NodeId] {
        &self.relay_row(src, local).order
    }

    fn relay_row(&self, src: NodeId, local: NodeId) -> &RelayRow {
        let n = self.routes.node_count();
        self.relay[src.index() * n + local.index()].get_or_init(|| {
            let detour = |m: NodeId| self.routes.rate(src, m) + self.routes.rate(m, local);
            let mut order: Vec<NodeId> = self.topo.storages().collect();
            order.sort_by(|&a, &b| detour(a).total_cmp(&detour(b)).then(a.cmp(&b)));
            RelayRow { order: order.into_boxed_slice(), via: vec![OnceLock::new(); n].into() }
        })
    }

    /// The route of a stream that fills a new cache at `m` on its way from
    /// `src` to `local`: the cheapest route `src → m` followed by the
    /// cheapest route `m → local`, as a shared handle. A cache at `local`
    /// itself is on the direct route, which is then the one handed out.
    pub fn relay_route(
        &self,
        src: NodeId,
        m: NodeId,
        local: NodeId,
    ) -> Result<Arc<[NodeId]>, TopologyError> {
        if m == local {
            return self.routes.shared_path(src, local);
        }
        let cell = &self.relay_row(src, local).via[m.index()];
        if let Some(route) = cell.get() {
            return Ok(route.clone());
        }
        let (head, tail) = (self.routes.shared_path(src, m)?, self.routes.shared_path(m, local)?);
        let joined: Arc<[NodeId]> = head.iter().chain(&tail[1..]).copied().collect();
        Ok(cell.get_or_init(|| joined).clone())
    }

    /// The delivery transfer of `req` streamed from `src`, through a new
    /// cache at `via` when the plan introduces one.
    ///
    /// # Panics
    ///
    /// Panics if this context's table has no such route; a scheduler only
    /// materialises plans it priced at a finite rate.
    pub(crate) fn delivery(&self, req: &Request, src: NodeId, via: Option<NodeId>) -> Transfer {
        let local = self.topo.home_of(req.user);
        let route = match via {
            None => self.routes.shared_path(src, local),
            Some(m) => self.relay_route(src, m, local),
        };
        // Cannot fire from the solvers: they refuse a plan at an infinite
        // cost, and a finite rate is a path the table holds.
        Transfer::for_user(req, route.expect("a plan priced at a finite rate has a route"))
    }

    /// The same context with a (typically enabled) telemetry recorder
    /// attached; every pipeline stage reached through this context
    /// records into it.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Ψ(S_i) for one video's schedule.
    pub fn video_cost(&self, s: &VideoSchedule) -> Dollars {
        self.model.video_schedule_cost(self.topo, self.catalog.get(s.video), s)
    }

    /// Ψ(S) for a global schedule.
    pub fn schedule_cost(&self, s: &Schedule) -> Dollars {
        self.model.schedule_cost(self.topo, self.catalog, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_cost_model::{Video, VideoId};
    use vod_topology::{builders, units, UserId};

    #[test]
    fn context_prices_like_the_model() {
        let topo = builders::paper_fig2(16.0, 8.0, 1.0, 5.0);
        let video = Video::new(VideoId(0), units::gb(2.5), units::minutes(90.0), units::mbps(6.0));
        let catalog = Catalog::new(vec![video]);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);

        let req = Request { user: UserId(0), video: VideoId(0), start: 0.0 };
        let mut vs = VideoSchedule::new(VideoId(0));
        vs.transfers.push(Transfer::for_user(&req, ctx.routes.path(topo.warehouse(), NodeId(1))));
        assert!((ctx.video_cost(&vs) - 64.8).abs() < 1e-9);

        let mut s = Schedule::new();
        s.upsert(vs);
        assert!((ctx.schedule_cost(&s) - 64.8).abs() < 1e-9);
    }
}

//! Link bandwidth accounting — the paper's stated future-work extension
//! (§6: "we plan to extend our approach to resolve the bandwidth
//! constraints of the intermediate storages and communication network").
//!
//! Each transfer streams at its video's reserved bandwidth `B` for the
//! playback duration `P` over every link of its route, so per-link load is
//! piecewise constant with breakpoints at stream starts and ends. This
//! module computes those load profiles, detects intervals where a link's
//! declared capacity is exceeded, and offers a simple resolution pass that
//! re-times nothing but re-routes *cache-fill-free* deliveries onto the
//! cheapest route with spare capacity.

use crate::{Interval, SchedCtx};
use vod_cost_model::{Catalog, Schedule, Secs};
use vod_topology::{NodeId, Topology};

/// Piecewise-constant load on one link.
#[derive(Clone, Debug, Default)]
pub struct LinkLoad {
    /// `(time, delta_bytes_per_sec)` events, unsorted until
    /// [`LinkLoad::finish`].
    events: Vec<(Secs, f64)>,
}

impl LinkLoad {
    /// Record a stream occupying the link over `[start, start + dur)` at
    /// `rate` bytes/s.
    pub fn add(&mut self, start: Secs, dur: Secs, rate: f64) {
        self.events.push((start, rate));
        self.events.push((start + dur, -rate));
    }

    /// Sort events; returns the step function as `(time, load_after)`
    /// pairs.
    pub fn steps(&self) -> Vec<(Secs, f64)> {
        let mut ev = self.events.clone();
        ev.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut out: Vec<(Secs, f64)> = Vec::with_capacity(ev.len());
        let mut load = 0.0;
        for (t, d) in ev {
            load += d;
            match out.last_mut() {
                Some((lt, l)) if *lt == t => *l = load,
                _ => out.push((t, load)),
            }
        }
        out
    }

    /// Peak load in bytes/s.
    pub fn peak(&self) -> f64 {
        self.steps().iter().map(|&(_, l)| l).fold(0.0, f64::max)
    }
}

/// An interval during which a link carries more than its capacity.
#[derive(Clone, Debug)]
pub struct LinkOverload {
    /// Index into [`Topology::edges`].
    pub edge: usize,
    /// The endpoints of the overloaded link.
    pub endpoints: (NodeId, NodeId),
    /// Maximal interval of overload.
    pub window: Interval,
    /// Peak excess bandwidth demanded, bytes/s.
    pub peak_excess: f64,
}

/// Compute per-link load profiles for a schedule.
pub fn link_loads(topo: &Topology, catalog: &Catalog, schedule: &Schedule) -> Vec<LinkLoad> {
    let mut loads = vec![LinkLoad::default(); topo.edge_count()];
    for t in schedule.transfers() {
        let video = catalog.get(t.video);
        for hop in t.route.windows(2) {
            let edge_idx = topo
                .edge_index(hop[0], hop[1])
                .unwrap_or_else(|| panic!("transfer hop {}-{} is not a link", hop[0], hop[1]));
            loads[edge_idx].add(t.start, video.playback, video.bandwidth);
        }
    }
    loads
}

/// Detect every link overload in a schedule. Links without a declared
/// bandwidth are never overloaded.
pub fn detect_link_overloads(
    topo: &Topology,
    catalog: &Catalog,
    schedule: &Schedule,
) -> Vec<LinkOverload> {
    let loads = link_loads(topo, catalog, schedule);
    let mut out = Vec::new();
    for (edge, load) in loads.iter().enumerate() {
        let Some(capacity) = topo.edges()[edge].bandwidth else { continue };
        let steps = load.steps();
        let mut open: Option<(Secs, f64)> = None;
        for &(t, l) in &steps {
            let over = l > capacity * (1.0 + 1e-9);
            match (&mut open, over) {
                (None, true) => open = Some((t, l - capacity)),
                (Some((_, peak)), true) => *peak = peak.max(l - capacity),
                (Some(_), false) => {
                    let (s, peak) = open.take().expect("window open");
                    out.push(LinkOverload {
                        edge,
                        endpoints: (topo.edges()[edge].a, topo.edges()[edge].b),
                        window: Interval::new(s, t),
                        peak_excess: peak,
                    });
                }
                (None, false) => {}
            }
        }
        if let Some((s, peak)) = open {
            let end = steps.last().expect("events exist if a window opened").0;
            out.push(LinkOverload {
                edge,
                endpoints: (topo.edges()[edge].a, topo.edges()[edge].b),
                window: Interval::new(s, end.max(s)),
                peak_excess: peak,
            });
        }
    }
    out
}

/// Total bytes shipped over every link by a schedule — a useful scalar for
/// comparing network pressure between policies.
pub fn total_network_bytes(catalog: &Catalog, schedule: &Schedule) -> f64 {
    schedule
        .transfers()
        .map(|t| catalog.get(t.video).amortized_bytes() * t.hop_count() as f64)
        .sum()
}

/// Check whether a schedule satisfies all declared link capacities.
pub fn bandwidth_feasible(ctx: &SchedCtx<'_>, schedule: &Schedule) -> bool {
    detect_link_overloads(ctx.topo, ctx.catalog, schedule).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{baselines, ivsp_solve, SchedCtx};
    use vod_cost_model::CostModel;
    use vod_topology::{builders, units};
    use vod_workload::{CatalogConfig, RequestConfig, Workload};

    #[test]
    fn link_load_steps_accumulate_and_release() {
        let mut l = LinkLoad::default();
        l.add(10.0, 5.0, 2.0);
        l.add(12.0, 5.0, 3.0);
        let steps = l.steps();
        assert_eq!(steps, vec![(10.0, 2.0), (12.0, 5.0), (15.0, 3.0), (17.0, 0.0)]);
        assert_eq!(l.peak(), 5.0);
    }

    #[test]
    fn unlimited_links_never_overload() {
        let topo = builders::paper_fig4(&builders::PaperFig4Config::default());
        let wl = Workload::generate(&topo, &CatalogConfig::small(40), &RequestConfig::paper(), 1);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let s = ivsp_solve(&ctx, &wl.requests);
        assert!(detect_link_overloads(&topo, &wl.catalog, &s).is_empty());
        assert!(bandwidth_feasible(&ctx, &s));
    }

    #[test]
    fn tight_links_overload_under_network_only() {
        let mut topo = builders::paper_fig4(&builders::PaperFig4Config::default());
        // One stream's worth of bandwidth per link: concurrent streams on a
        // shared link must trip detection.
        topo.set_uniform_bandwidth(Some(units::mbps(5.0))).unwrap();
        let wl = Workload::generate(&topo, &CatalogConfig::small(40), &RequestConfig::paper(), 1);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let s = baselines::network_only(&ctx, &wl.requests);
        let overloads = detect_link_overloads(&topo, &wl.catalog, &s);
        assert!(
            !overloads.is_empty(),
            "190 daily streams through a 1-stream backbone must collide"
        );
        for o in &overloads {
            assert!(o.peak_excess > 0.0);
            assert!(o.window.len() > 0.0);
        }
    }

    #[test]
    fn caching_reduces_total_network_bytes() {
        let topo = builders::paper_fig4(&builders::PaperFig4Config::default());
        let wl = Workload::generate(&topo, &CatalogConfig::small(40), &RequestConfig::paper(), 2);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let greedy = ivsp_solve(&ctx, &wl.requests);
        let direct = baselines::network_only(&ctx, &wl.requests);
        assert!(
            total_network_bytes(&wl.catalog, &greedy) <= total_network_bytes(&wl.catalog, &direct)
        );
    }
}

//! The mapping Ψ from a service schedule to dollars (paper Eqs. 1–4).

use crate::video::Catalog;
use crate::{Dollars, Residency, Schedule, SpaceModel, Transfer, Video, VideoSchedule};
use serde::{Deserialize, Serialize};
use vod_topology::{RouteTable, Topology};

/// How the network charging rate of a transfer is assessed (paper §2.2.2:
/// "Depending on the underlying network structure, charging rate can be
/// defined on per hop basis or end-to-end basis").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChargingBasis {
    /// Sum the `nrate` of every hop the stream actually traverses. A relay
    /// detour through a caching storage pays for its extra hops.
    PerHop,
    /// Charge the cheapest end-to-end rate between the transfer's source
    /// and destination, regardless of the route actually taken.
    EndToEnd,
}

/// Prices schedules under a charging basis. Construct with
/// [`CostModel::per_hop`] or [`CostModel::end_to_end`].
#[derive(Clone, Debug)]
pub struct CostModel {
    basis: ChargingBasis,
    /// Cheapest end-to-end rates; only populated (and only consulted) for
    /// [`ChargingBasis::EndToEnd`].
    e2e: Option<RouteTable>,
    /// How residency occupancy accrues for pricing.
    space_model: SpaceModel,
}

impl CostModel {
    /// Per-hop charging (the default throughout the paper's evaluation).
    pub fn per_hop() -> Self {
        Self {
            basis: ChargingBasis::PerHop,
            e2e: None,
            space_model: SpaceModel::InstantReservation,
        }
    }

    /// End-to-end charging: rates are the cheapest-route rates of `topo`.
    pub fn end_to_end(topo: &Topology) -> Self {
        Self {
            basis: ChargingBasis::EndToEnd,
            e2e: Some(RouteTable::build(topo)),
            space_model: SpaceModel::InstantReservation,
        }
    }

    /// Switch the storage-pricing space model (ablation; the paper uses
    /// instant reservation). Overflow detection always uses the paper's
    /// instant-reservation accounting — §2.2.1 reserves the full plateau
    /// from the caching start, which is exactly what a real disk would
    /// have to guarantee at admission time.
    pub fn with_space_model(mut self, model: SpaceModel) -> Self {
        self.space_model = model;
        self
    }

    /// The configured space model.
    pub fn space_model(&self) -> SpaceModel {
        self.space_model
    }

    /// The configured basis.
    pub fn basis(&self) -> ChargingBasis {
        self.basis
    }

    /// Ψ_D(d): amortized network cost of one transfer (Eq. 4):
    /// `P_id · B_id · Σ nrate` over the charged hops.
    pub fn transfer_cost(&self, topo: &Topology, video: &Video, d: &Transfer) -> Dollars {
        debug_assert_eq!(video.id, d.video);
        let rate = match self.basis {
            ChargingBasis::PerHop => d
                .route
                .windows(2)
                .map(|w| {
                    topo.edge_between(w[0], w[1])
                        .unwrap_or_else(|| panic!("transfer hop {}-{} is not a link", w[0], w[1]))
                        .nrate
                })
                .sum::<f64>(),
            ChargingBasis::EndToEnd => {
                let table = self.e2e.as_ref().expect("end-to-end model carries a rate table");
                table.rate(d.src(), d.dst())
            }
        };
        video.amortized_bytes() * rate
    }

    /// Ψ_C(c): amortized storage cost of one residency (Eqs. 2–3):
    /// `srate(loc) · size · γ · ((t_f − t_s) + P/2)`, i.e. the charging
    /// rate times the full integral of the space profile.
    pub fn residency_cost(&self, topo: &Topology, video: &Video, c: &Residency) -> Dollars {
        topo.srate(c.loc) * c.profile_with(video, self.space_model).integral()
    }

    /// Ψ(S_i): cost of one video's schedule (network + storage terms).
    pub fn video_schedule_cost(
        &self,
        topo: &Topology,
        video: &Video,
        s: &VideoSchedule,
    ) -> Dollars {
        debug_assert_eq!(video.id, s.video);
        let network: Dollars = s.transfers.iter().map(|d| self.transfer_cost(topo, video, d)).sum();
        let storage: Dollars =
            s.residencies.iter().map(|c| self.residency_cost(topo, video, c)).sum();
        network + storage
    }

    /// Ψ(S): cost of the global schedule (Eq. 1).
    pub fn schedule_cost(&self, topo: &Topology, catalog: &Catalog, s: &Schedule) -> Dollars {
        s.videos().map(|vs| self.video_schedule_cost(topo, catalog.get(vs.video), vs)).sum()
    }

    /// Split of the global cost into (network, storage) components; useful
    /// for the qualitative analyses of §5.2/§5.3.
    pub fn schedule_cost_split(
        &self,
        topo: &Topology,
        catalog: &Catalog,
        s: &Schedule,
    ) -> (Dollars, Dollars) {
        let mut network = 0.0;
        let mut storage = 0.0;
        for vs in s.videos() {
            let v = catalog.get(vs.video);
            network += vs.transfers.iter().map(|d| self.transfer_cost(topo, v, d)).sum::<f64>();
            storage += vs.residencies.iter().map(|c| self.residency_cost(topo, v, c)).sum::<f64>();
        }
        (network, storage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Request, VideoId};
    use vod_topology::{builders, units, NodeId, UserId};

    /// The paper's Fig. 2 environment. Network rates of 0.2 and 0.1
    /// ¢/(Mbps·s) convert to 16 and 8 $/GB of amortized traffic
    /// (0.2¢ × 5400 s × 6 Mbps = $64.80 for 4.05 GB). The storage rate of
    /// $1/(GB·h) makes the cached copy cost $9.375 exactly as printed.
    fn fig2() -> (Topology, RouteTable, Video) {
        let topo = builders::paper_fig2(16.0, 8.0, 1.0, 5.0);
        let routes = RouteTable::build(&topo);
        let video = Video::new(VideoId(0), units::gb(2.5), units::minutes(90.0), units::mbps(6.0));
        (topo, routes, video)
    }

    use vod_topology::Topology;

    /// Request times of the example: 1:00 pm, 2:30 pm, 4:00 pm.
    const T1: f64 = 13.0 * 3600.0;
    const T2: f64 = 14.5 * 3600.0;
    const T3: f64 = 16.0 * 3600.0;

    fn fig2_requests() -> [Request; 3] {
        [
            Request { user: UserId(0), video: VideoId(0), start: T1 },
            Request { user: UserId(1), video: VideoId(0), start: T2 },
            Request { user: UserId(2), video: VideoId(0), start: T3 },
        ]
    }

    /// Golden test: schedule S1 — every request streams straight from the
    /// warehouse. Ψ(S1) = $259.20.
    #[test]
    fn fig2_schedule_s1_cost() {
        let (topo, routes, video) = fig2();
        let [u1, u2, u3] = fig2_requests();
        let vw = topo.warehouse();
        let (is1, is2) = (NodeId(1), NodeId(2));

        let mut s = VideoSchedule::new(video.id);
        s.transfers.push(Transfer::for_user(&u1, routes.path(vw, is1)));
        s.transfers.push(Transfer::for_user(&u2, routes.path(vw, is2)));
        s.transfers.push(Transfer::for_user(&u3, routes.path(vw, is2)));

        let model = CostModel::per_hop();
        let cost = model.video_schedule_cost(&topo, &video, &s);
        assert!((cost - 259.2).abs() < 1e-9, "Ψ(S1) = {cost}, expected 259.2");
    }

    /// Golden test: schedule S2 — U1 streams from the warehouse while IS1
    /// caches the file; U2 and U3 are served from IS1's copy.
    /// Ψ(S2) = $138.975.
    #[test]
    fn fig2_schedule_s2_cost() {
        let (topo, routes, video) = fig2();
        let [u1, u2, u3] = fig2_requests();
        let vw = topo.warehouse();
        let (is1, is2) = (NodeId(1), NodeId(2));

        let mut s = VideoSchedule::new(video.id);
        s.transfers.push(Transfer::for_user(&u1, routes.path(vw, is1)));
        s.transfers.push(Transfer::for_user(&u2, routes.path(is1, is2)));
        s.transfers.push(Transfer::for_user(&u3, routes.path(is1, is2)));
        let mut res = crate::Residency::begin(is1, vw, u1);
        res.extend(u2);
        res.extend(u3);
        s.residencies.push(res);

        let model = CostModel::per_hop();
        let cost = model.video_schedule_cost(&topo, &video, &s);
        assert!((cost - 138.975).abs() < 1e-9, "Ψ(S2) = {cost}, expected 138.975");

        // Component check: $129.60 network + $9.375 storage.
        let net: f64 = s.transfers.iter().map(|d| model.transfer_cost(&topo, &video, d)).sum();
        let sto: f64 = s.residencies.iter().map(|c| model.residency_cost(&topo, &video, c)).sum();
        assert!((net - 129.6).abs() < 1e-9);
        assert!((sto - 9.375).abs() < 1e-9);
    }

    /// The paper's conclusion for the example: S2 is cheaper than S1,
    /// computed from the actual schedules rather than the golden figures.
    #[test]
    fn fig2_s2_beats_s1() {
        let (topo, routes, video) = fig2();
        let [u1, u2, u3] = fig2_requests();
        let vw = topo.warehouse();
        let (is1, is2) = (NodeId(1), NodeId(2));
        let model = CostModel::per_hop();

        let mut s1 = VideoSchedule::new(video.id);
        s1.transfers.push(Transfer::for_user(&u1, routes.path(vw, is1)));
        s1.transfers.push(Transfer::for_user(&u2, routes.path(vw, is2)));
        s1.transfers.push(Transfer::for_user(&u3, routes.path(vw, is2)));

        let mut s2 = VideoSchedule::new(video.id);
        s2.transfers.push(Transfer::for_user(&u1, routes.path(vw, is1)));
        s2.transfers.push(Transfer::for_user(&u2, routes.path(is1, is2)));
        s2.transfers.push(Transfer::for_user(&u3, routes.path(is1, is2)));
        let mut res = crate::Residency::begin(is1, vw, u1);
        res.extend(u2);
        res.extend(u3);
        s2.residencies.push(res);

        let c1 = model.video_schedule_cost(&topo, &video, &s1);
        let c2 = model.video_schedule_cost(&topo, &video, &s2);
        assert!(c2 < c1, "Ψ(S2) = {c2} must beat Ψ(S1) = {c1}");
    }

    #[test]
    fn per_hop_charges_actual_route_detours() {
        let (topo, _routes, video) = fig2();
        let vw = topo.warehouse();
        let (is1, is2) = (NodeId(1), NodeId(2));
        // A detour VW→IS1→IS2→IS1 (artificial) pays for all three hops
        // under per-hop charging.
        let d = Transfer {
            video: video.id,
            route: vec![vw, is1, is2, is1].into(),
            start: 0.0,
            user: None,
        };
        let per_hop = CostModel::per_hop().transfer_cost(&topo, &video, &d);
        // 16 + 8 + 8 = 32 $/GB on 4.05 GB.
        assert!((per_hop - 4.05 * 32.0).abs() < 1e-9);

        // End-to-end charging prices src→dst at the cheapest rate (16).
        let e2e = CostModel::end_to_end(&topo).transfer_cost(&topo, &video, &d);
        assert!((e2e - 4.05 * 16.0).abs() < 1e-9);
    }

    #[test]
    fn bases_agree_on_cheapest_routes() {
        let (topo, routes, video) = fig2();
        let vw = topo.warehouse();
        let is2 = NodeId(2);
        let d = Transfer::cache_fill(video.id, routes.path(vw, is2), 0.0);
        let a = CostModel::per_hop().transfer_cost(&topo, &video, &d);
        let b = CostModel::end_to_end(&topo).transfer_cost(&topo, &video, &d);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn zero_hop_transfer_is_free() {
        let (topo, routes, video) = fig2();
        let is1 = NodeId(1);
        let d = Transfer::cache_fill(video.id, routes.path(is1, is1), 0.0);
        assert_eq!(CostModel::per_hop().transfer_cost(&topo, &video, &d), 0.0);
    }

    #[test]
    fn degenerate_residency_costs_nothing() {
        let (topo, _routes, video) = fig2();
        let [u1, ..] = fig2_requests();
        let res = crate::Residency::begin(NodeId(1), topo.warehouse(), u1);
        assert_eq!(CostModel::per_hop().residency_cost(&topo, &video, &res), 0.0);
    }

    #[test]
    fn short_residency_cost_scales_with_gamma() {
        let (topo, _routes, video) = fig2();
        let model = CostModel::per_hop();
        // Residency of half the playback length: γ = 0.5.
        let mut res = crate::Residency::begin(
            NodeId(1),
            topo.warehouse(),
            Request { user: UserId(0), video: video.id, start: 0.0 },
        );
        res.extend(Request { user: UserId(1), video: video.id, start: video.playback / 2.0 });
        let cost = model.residency_cost(&topo, &video, &res);
        // srate · size · γ · (Δ + P/2) with Δ = P/2:
        // = 1/(GB·h) · 2.5 GB · 0.5 · P = 2.5 · 0.5 · 1.5h = $1.875.
        assert!((cost - 1.875).abs() < 1e-9, "got {cost}");
    }

    #[test]
    fn schedule_cost_sums_over_videos() {
        let (topo, routes, video) = fig2();
        let video2 = Video::new(VideoId(1), units::gb(1.0), units::minutes(60.0), units::mbps(4.0));
        let catalog = Catalog::new(vec![video, video2]);
        let vw = topo.warehouse();
        let is1 = NodeId(1);

        let mut a = VideoSchedule::new(video.id);
        a.transfers.push(Transfer::cache_fill(video.id, routes.path(vw, is1), 0.0));
        let mut b = VideoSchedule::new(video2.id);
        b.transfers.push(Transfer::cache_fill(video2.id, routes.path(vw, is1), 0.0));

        let model = CostModel::per_hop();
        let ca = model.video_schedule_cost(&topo, &video, &a);
        let cb = model.video_schedule_cost(&topo, &video2, &b);
        let mut s = Schedule::new();
        s.upsert(a);
        s.upsert(b);
        let total = model.schedule_cost(&topo, &catalog, &s);
        assert!((total - (ca + cb)).abs() < 1e-9);

        let (net, sto) = model.schedule_cost_split(&topo, &catalog, &s);
        assert!((net + sto - total).abs() < 1e-9);
        assert_eq!(sto, 0.0);
    }
}

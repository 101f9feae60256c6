//! Service-schedule structures: network transfers `d_i`, file residencies
//! `c_i`, per-video schedules `S_i`, and the global schedule `S` (paper
//! §2.1).

use crate::{Request, Secs, SpaceModel, SpaceProfile, Video, VideoId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use vod_topology::{NodeId, UserId};

/// Network transfer information `d_i = (route_i, t_i, id_i)`: the stream of
/// file `id_i` flows along `route_i` (a sequence of storage nodes, source
/// first) starting at `t_i`. Per the paper, the final leg between the last
/// node (`n_dst`, the served user's local IS) and the user itself is
/// uniquely defined and excluded from routing and charging.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Transfer {
    /// The file being streamed.
    pub video: VideoId,
    /// Node sequence from source to destination, inclusive. A route of
    /// length 1 means the stream never crosses a charged link (the source
    /// is already the user's local IS). A handle to the environment's
    /// shared node sequence ([`vod_topology::RouteTable::shared_path`]):
    /// cloning a transfer copies no nodes, and equality is by content.
    pub route: Arc<[NodeId]>,
    /// Stream start time (`t_i`); for a delivery this equals the request's
    /// reserved presentation time.
    pub start: Secs,
    /// The user this stream delivers to, or `None` for a pure cache-fill
    /// stream that terminates at an intermediate storage.
    pub user: Option<UserId>,
}

impl Transfer {
    /// A delivery transfer for `request` along `route` (the route's
    /// destination must be the user's local IS; validated by the
    /// simulator).
    pub fn for_user(request: &Request, route: impl Into<Arc<[NodeId]>>) -> Self {
        Self {
            video: request.video,
            route: route.into(),
            start: request.start,
            user: Some(request.user),
        }
    }

    /// A cache-fill transfer (no delivered user).
    pub fn cache_fill(video: VideoId, route: impl Into<Arc<[NodeId]>>, start: Secs) -> Self {
        Self { video, route: route.into(), start, user: None }
    }

    /// Source node of the stream.
    pub fn src(&self) -> NodeId {
        *self.route.first().expect("transfer route is never empty")
    }

    /// Destination node of the stream.
    pub fn dst(&self) -> NodeId {
        *self.route.last().expect("transfer route is never empty")
    }

    /// Number of charged hops.
    pub fn hop_count(&self) -> usize {
        self.route.len().saturating_sub(1)
    }
}

/// File residency information
/// `c_i = ([t_s, t_f], loc_i, id_i, n_src, service_list)`: file `id_i` is
/// cached at storage `loc_i`, loaded by copying blocks from the stream
/// arriving from `n_src` starting at `t_s`; `t_f` is the start time of the
/// chronologically last service delivered out of this cache. Pricing
/// (Eqs. 2–3) reads the interval and the location only, so the service
/// list is kept as its length: the services themselves are the video's
/// delivery transfers (the filling one starts at `t_s`, the rest leave
/// `loc_i` within `[t_s, t_f]`).
///
/// A *carried* residency continues a whole copy an earlier scheduling
/// cycle filled and held at `loc_i` until `t_s`, its commit instant: that
/// cycle charged the copy up to `t_s` and its drain after it, so this one
/// is the extension alone. Its occupancy is what the extension adds to the
/// held copy's drain — a rise to the full size over `P`, the plateau to
/// `t_f` and a drain over `P` — which is the [`SpaceModel::GradualFill`]
/// profile of `[t_s, t_f]`, and its cost `srate · size · (t_f − t_s)`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Residency {
    /// The cached file.
    pub video: VideoId,
    /// The hosting intermediate storage (`loc_i`).
    pub loc: NodeId,
    /// Where the filling stream came from (`n_src`: the warehouse or
    /// another intermediate storage).
    pub src: NodeId,
    /// Caching start `t_s`.
    pub start: Secs,
    /// Start of the last service `t_f` (`≥ start`). Space remains occupied
    /// until `t_f + P` while the last service drains the cache.
    pub last_service: Secs,
    /// How many requests this cache serves (the length of the paper's
    /// `service_list`), the request whose stream filled it included.
    pub service_count: u32,
    /// Whether this residency continues a copy held over from an earlier
    /// cycle (see the type's docs): no stream fills it, `src` is `loc`,
    /// and `start` is the instant the copy was held to.
    pub carried: bool,
}

impl Residency {
    /// Begin a residency at `loc`, filled from `src` by the stream serving
    /// `first` (so `t_s = t_f = first.start` initially — a pure relay until
    /// another service extends it).
    pub fn begin(loc: NodeId, src: NodeId, first: Request) -> Self {
        Self {
            video: first.video,
            loc,
            src,
            start: first.start,
            last_service: first.start,
            service_count: 1,
            carried: false,
        }
    }

    /// Continue at `held.loc` the whole copy `held`, held there until its
    /// last service: a carried residency that has served no request yet
    /// and occupies nothing beyond the held copy.
    pub fn carry(held: &Residency) -> Self {
        Self {
            video: held.video,
            loc: held.loc,
            src: held.loc,
            start: held.last_service,
            last_service: held.last_service,
            service_count: 0,
            carried: true,
        }
    }

    /// Residency duration `t_f − t_s`.
    pub fn duration(&self) -> Secs {
        self.last_service - self.start
    }

    /// Whether this is a *long residency* (`t_f − t_s ≥ P`, Eq. 2) for the
    /// given playback length.
    pub fn is_long(&self, playback: Secs) -> bool {
        self.duration() >= playback
    }

    /// Extend the residency with a later service. Panics if `req` starts
    /// before the current last service (services must stay chronological)
    /// or asks for another video.
    pub fn extend(&mut self, req: Request) {
        assert!(
            req.start >= self.last_service,
            "service at {} precedes current last service {}",
            req.start,
            self.last_service
        );
        assert_eq!(req.video, self.video, "residency/service video mismatch");
        self.last_service = req.start;
        self.service_count += 1;
    }

    /// The space-occupancy profile of this residency for its video under
    /// the paper's instant-reservation model.
    pub fn profile(&self, video: &Video) -> SpaceProfile {
        self.profile_with(video, SpaceModel::InstantReservation)
    }

    /// The space-occupancy profile under an explicit space model. A
    /// carried residency's is the gradual-fill shape under every model:
    /// the extension of a whole copy (see the type's docs).
    pub fn profile_with(&self, video: &Video, model: SpaceModel) -> SpaceProfile {
        debug_assert_eq!(video.id, self.video);
        let model = if self.carried { SpaceModel::GradualFill } else { model };
        SpaceProfile::with_model(self.start, self.last_service, video.size, video.playback, model)
    }
}

/// The schedule `S_i` for one video: all its transfers and residencies.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VideoSchedule {
    /// The scheduled video.
    pub video: VideoId,
    /// Network transfer information `D`.
    pub transfers: Vec<Transfer>,
    /// File residency information `C`.
    pub residencies: Vec<Residency>,
}

impl VideoSchedule {
    /// An empty schedule for `video`.
    pub fn new(video: VideoId) -> Self {
        Self { video, transfers: Vec::new(), residencies: Vec::new() }
    }

    /// Number of requests delivered by this schedule.
    pub fn delivery_count(&self) -> usize {
        self.transfers.iter().filter(|t| t.user.is_some()).count()
    }

    /// Residencies hosted at a given storage.
    pub fn residencies_at(&self, loc: NodeId) -> impl Iterator<Item = &Residency> + '_ {
        self.residencies.iter().filter(move |r| r.loc == loc)
    }

    /// The requests this schedule delivers, one per delivery transfer, in
    /// transfer order and without allocating. The greedy emits deliveries
    /// in the order of its chronologically sorted input, so on its
    /// outputs this is already the order of
    /// [`VideoSchedule::delivered_requests`].
    pub fn delivered(&self) -> impl Iterator<Item = Request> + '_ {
        self.transfers
            .iter()
            .filter_map(|t| t.user.map(|user| Request { user, video: self.video, start: t.start }))
    }

    /// Reconstruct the request set this schedule delivers (one per
    /// delivery transfer), sorted chronologically — the input needed to
    /// re-schedule this video from scratch.
    pub fn delivered_requests(&self) -> Vec<Request> {
        let mut out: Vec<Request> = self.delivered().collect();
        out.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.user.cmp(&b.user)));
        out
    }
}

/// The global service schedule `S = ∪ S_i`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    videos: Vec<VideoSchedule>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty schedule with room for `videos` per-video schedules.
    pub fn with_capacity(videos: usize) -> Self {
        Self { videos: Vec::with_capacity(videos) }
    }

    /// Add (or replace) the schedule of one video and return its position
    /// in id order. Keeps per-video schedules sorted by video id for
    /// deterministic iteration; a video past the last one (how schedules
    /// are built, in id order) is appended without a search.
    pub fn upsert(&mut self, vs: VideoSchedule) -> usize {
        if self.videos.last().is_none_or(|last| last.video < vs.video) {
            self.videos.push(vs);
            return self.videos.len() - 1;
        }
        match self.position(vs.video) {
            Ok(i) => {
                self.videos[i] = vs;
                i
            }
            Err(i) => {
                self.videos.insert(i, vs);
                i
            }
        }
    }

    /// Where `video` sits among the per-video schedules, in id order:
    /// `Ok(i)` when it is scheduled, else `Err(i)`, where it would go.
    /// Tables kept beside a schedule index by this position.
    pub fn position(&self, video: VideoId) -> Result<usize, usize> {
        self.videos.binary_search_by(|x| x.video.cmp(&video))
    }

    /// The per-video schedule, if present.
    pub fn video(&self, video: VideoId) -> Option<&VideoSchedule> {
        self.position(video).ok().map(|i| &self.videos[i])
    }

    /// The per-video schedule at position `i` of [`Schedule::videos`].
    pub fn video_at(&self, i: usize) -> &VideoSchedule {
        &self.videos[i]
    }

    /// Iterate over per-video schedules in video-id order.
    pub fn videos(&self) -> impl Iterator<Item = &VideoSchedule> + '_ {
        self.videos.iter()
    }

    /// Number of per-video schedules.
    pub fn video_count(&self) -> usize {
        self.videos.len()
    }

    /// Every transfer in the schedule.
    pub fn transfers(&self) -> impl Iterator<Item = &Transfer> + '_ {
        self.videos.iter().flat_map(|v| v.transfers.iter())
    }

    /// Every residency in the schedule.
    pub fn residencies(&self) -> impl Iterator<Item = &Residency> + '_ {
        self.videos.iter().flat_map(|v| v.residencies.iter())
    }

    /// Every residency, mutably — for changing a residency's interval in
    /// place (a cycle's commit holds some until the next one).
    pub fn residencies_mut(&mut self) -> impl Iterator<Item = &mut Residency> + '_ {
        self.videos.iter_mut().flat_map(|v| v.residencies.iter_mut())
    }

    /// Every residency hosted at `loc`, across videos.
    pub fn residencies_at(&self, loc: NodeId) -> impl Iterator<Item = &Residency> + '_ {
        self.residencies().filter(move |r| r.loc == loc)
    }

    /// Total deliveries across videos.
    pub fn delivery_count(&self) -> usize {
        self.videos.iter().map(|v| v.delivery_count()).sum()
    }

    /// Consume the schedule into its per-video schedules, in video-id
    /// order — the shard-merge path takes ownership of each shard's
    /// partial schedules without cloning transfers or residencies.
    pub fn into_videos(self) -> Vec<VideoSchedule> {
        self.videos
    }
}

impl FromIterator<VideoSchedule> for Schedule {
    fn from_iter<T: IntoIterator<Item = VideoSchedule>>(iter: T) -> Self {
        let mut s = Schedule::new();
        for vs in iter {
            s.upsert(vs);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Video;
    use vod_topology::Route;

    fn req(u: u32, v: u32, t: Secs) -> Request {
        Request { user: UserId(u), video: VideoId(v), start: t }
    }

    fn route(nodes: &[u32]) -> Route {
        Route { nodes: nodes.iter().map(|&n| NodeId(n)).collect(), rate: 0.0 }
    }

    #[test]
    fn transfer_accessors() {
        let t = Transfer::for_user(&req(1, 0, 5.0), route(&[0, 1, 2]));
        assert_eq!(t.src(), NodeId(0));
        assert_eq!(t.dst(), NodeId(2));
        assert_eq!(t.hop_count(), 2);
        assert_eq!(t.user, Some(UserId(1)));
        assert_eq!(t.start, 5.0);

        let c = Transfer::cache_fill(VideoId(0), route(&[0]), 1.0);
        assert_eq!(c.hop_count(), 0);
        assert!(c.user.is_none());
    }

    #[test]
    fn residency_begin_is_degenerate_relay() {
        let r = Residency::begin(NodeId(1), NodeId(0), req(0, 3, 100.0));
        assert_eq!(r.duration(), 0.0);
        assert_eq!(r.service_count, 1);
        assert!(!r.is_long(60.0));
    }

    #[test]
    fn residency_extend_updates_last_service() {
        let mut r = Residency::begin(NodeId(1), NodeId(0), req(0, 3, 100.0));
        r.extend(req(1, 3, 250.0));
        r.extend(req(2, 3, 400.0));
        assert_eq!(r.last_service, 400.0);
        assert_eq!(r.duration(), 300.0);
        assert!(r.is_long(300.0));
        assert!(!r.is_long(301.0));
        assert_eq!(r.service_count, 3);
    }

    #[test]
    #[should_panic(expected = "precedes current last service")]
    fn residency_extend_rejects_time_travel() {
        let mut r = Residency::begin(NodeId(1), NodeId(0), req(0, 3, 100.0));
        r.extend(req(1, 3, 50.0));
    }

    #[test]
    #[should_panic(expected = "video mismatch")]
    fn residency_extend_rejects_other_video() {
        let mut r = Residency::begin(NodeId(1), NodeId(0), req(0, 3, 100.0));
        r.extend(req(1, 4, 200.0));
    }

    #[test]
    fn residency_profile_uses_video_parameters() {
        let mut r = Residency::begin(NodeId(1), NodeId(0), req(0, 0, 100.0));
        r.extend(req(1, 0, 160.0));
        let v = Video::new(VideoId(0), 1000.0, 120.0, 10.0);
        let p = r.profile(&v);
        assert_eq!(p.start, 100.0);
        assert_eq!(p.last, 160.0);
        assert_eq!(p.end, 280.0);
        // Short residency: γ = 60/120 = 0.5.
        assert!((p.plateau - 500.0).abs() < 1e-12);
    }

    /// A continuation of a held whole copy adds, at every instant, what
    /// extending the copy itself would add — and costs the extension.
    #[test]
    fn a_carried_residency_holds_and_costs_only_its_extension() {
        let v = Video::new(VideoId(0), 1000.0, 120.0, 10.0);
        let mut held = Residency::begin(NodeId(1), NodeId(0), req(0, 0, 100.0));
        held.extend(req(1, 0, 500.0));
        let mut c = Residency::carry(&held);
        assert!(c.carried && c.src == c.loc && c.service_count == 0);
        assert_eq!((c.start, c.last_service), (500.0, 500.0));
        assert_eq!(c.profile(&v).peak(), 0.0, "an unextended continuation adds nothing");
        c.extend(req(2, 0, 560.0));
        let p = c.profile(&v);
        assert_eq!((p.start, p.full, p.last, p.end), (500.0, 560.0, 620.0, 680.0));
        assert!((p.plateau - 500.0).abs() < 1e-9);
        assert_eq!(c.profile_with(&v, SpaceModel::InstantReservation), p, "any model");
        let whole = Residency { last_service: 560.0, ..held.clone() }.profile(&v);
        for t in [400.0, 500.0, 530.0, 560.0, 600.0, 640.0, 679.0] {
            let sum = held.profile(&v).space_at(t) + p.space_at(t);
            assert!((sum - whole.space_at(t)).abs() < 1e-9, "at {t}: {sum}");
        }
        assert!((p.integral() - 1000.0 * 60.0).abs() < 1e-6, "size × extension");
    }

    #[test]
    fn schedule_upsert_replaces_and_sorts() {
        let mut s = Schedule::new();
        assert_eq!(s.upsert(VideoSchedule::new(VideoId(5))), 0);
        assert_eq!(s.upsert(VideoSchedule::new(VideoId(1))), 0, "inserted ahead of 5");
        let mut vs = VideoSchedule::new(VideoId(5));
        vs.transfers.push(Transfer::cache_fill(VideoId(5), route(&[0]), 0.0));
        assert_eq!(s.upsert(vs), 1, "replaced in place");
        assert_eq!(s.video_count(), 2);
        let ids: Vec<u32> = s.videos().map(|v| v.video.0).collect();
        assert_eq!(ids, vec![1, 5]);
        assert_eq!(s.video(VideoId(5)).unwrap().transfers.len(), 1);
        assert_eq!(s.video_at(1).video, VideoId(5));
        assert!(s.video(VideoId(9)).is_none());
        assert_eq!((s.position(VideoId(5)), s.position(VideoId(3))), (Ok(1), Err(1)));
    }

    #[test]
    fn schedule_flattened_iterators() {
        let mut s = Schedule::new();
        let mut a = VideoSchedule::new(VideoId(0));
        a.transfers.push(Transfer::for_user(&req(0, 0, 1.0), route(&[0, 1])));
        a.residencies.push(Residency::begin(NodeId(1), NodeId(0), req(0, 0, 1.0)));
        let mut b = VideoSchedule::new(VideoId(1));
        b.transfers.push(Transfer::for_user(&req(1, 1, 2.0), route(&[0, 2])));
        b.transfers.push(Transfer::cache_fill(VideoId(1), route(&[0, 1]), 2.0));
        b.residencies.push(Residency::begin(NodeId(2), NodeId(0), req(1, 1, 2.0)));
        s.upsert(a);
        s.upsert(b);

        assert_eq!(s.transfers().count(), 3);
        assert_eq!(s.residencies().count(), 2);
        assert_eq!(s.residencies_at(NodeId(1)).count(), 1);
        assert_eq!(s.residencies_at(NodeId(7)).count(), 0);
        assert_eq!(s.delivery_count(), 2);
    }

    #[test]
    fn schedule_from_iterator() {
        let s: Schedule = vec![VideoSchedule::new(VideoId(2)), VideoSchedule::new(VideoId(0))]
            .into_iter()
            .collect();
        let ids: Vec<u32> = s.videos().map(|v| v.video.0).collect();
        assert_eq!(ids, vec![0, 2]);
    }
}

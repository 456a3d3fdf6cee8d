//! The seeded read mix, its output checks, and the fixed read set that
//! compares two epochs bit for bit.

use hive_core::clock::Timestamp;
use hive_core::discover::{self, DiscoverConfig, SearchHit};
use hive_core::history::HistoryQuery;
use hive_core::ids::UserId;
use hive_core::model::ActivityEvent;
use hive_core::peers::PeerRecConfig;
use hive_core::sim::topic_phrase;
use hive_core::{Epoch, HiveDb, PprCache};
use hive_rng::Rng;

use crate::stats::clock;
use crate::trace::{untraced, Tracer};

/// Words the history needles are drawn from (all occur in generated
/// session and paper text).
const NEEDLES: [&str; 8] = [
    "graph", "stream", "query", "index", "model", "privacy", "ranking", "window",
];

/// Every this-many searches, the served hits are compared against a
/// search over a fresh PPR cache.
const MEMO_CHECK_EVERY: usize = 8;

/// The seven read kinds of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReadKind {
    Search,
    Peers,
    SimilarPeers,
    Resources,
    Explain,
    Highlights,
    History,
}

impl ReadKind {
    /// Draws a kind: half the reads are searches, so every run holds
    /// enough searches for a p99 with ten samples beyond it.
    fn draw(rng: &mut Rng) -> ReadKind {
        match rng.gen_range(0..100u32) {
            0..=49 => ReadKind::Search,
            50..=59 => ReadKind::Peers,
            60..=67 => ReadKind::SimilarPeers,
            68..=75 => ReadKind::Resources,
            76..=83 => ReadKind::Explain,
            84..=91 => ReadKind::Highlights,
            _ => ReadKind::History,
        }
    }

    fn span(self) -> &'static str {
        match self {
            ReadKind::Search => "discover.search",
            ReadKind::Peers => "peers.recommend",
            ReadKind::SimilarPeers => "peers.similar",
            ReadKind::Resources => "discover.resources",
            ReadKind::Explain => "evidence.explain",
            ReadKind::Highlights => "feed.highlights",
            ReadKind::History => "history.search",
        }
    }
}

/// Latencies of the reads one run served, by kind.
#[derive(Default)]
pub struct ReadSamples {
    /// Every read, in order (microseconds).
    pub all_us: Vec<f64>,
    /// Per kind (microseconds).
    pub by_kind: std::collections::BTreeMap<ReadKind, Vec<f64>>,
}

/// Issues seeded reads against an epoch and checks what comes back.
pub struct ReadMix {
    rng: Rng,
    searches: usize,
    /// Output-check failures, described.
    pub violations: Vec<String>,
}

impl ReadMix {
    /// A read stream that is a pure function of `seed`.
    pub fn new(seed: u64) -> ReadMix {
        ReadMix {
            rng: Rng::seed_from_u64(seed),
            searches: 0,
            violations: Vec::new(),
        }
    }

    fn user(&mut self, users: &[UserId]) -> UserId {
        users[self.rng.gen_range(0..users.len())]
    }

    /// Serves one read on `epoch`, timing the public call, then checks
    /// its output outside the timed region.
    pub fn read(&mut self, epoch: &Epoch, samples: &mut ReadSamples, tr: &mut Tracer) {
        let users = epoch.db().user_ids();
        let kind = ReadKind::draw(&mut self.rng);
        let user = self.user(&users);
        let root = tr.enter("read");
        let us = match kind {
            ReadKind::Search => {
                let query = topic_phrase(self.rng.gen_range(0..8), &mut self.rng);
                if tr.enabled() {
                    untraced(|| tr.leaf("context.build", || epoch.activity_context(user)));
                }
                let cfg = DiscoverConfig::defaults();
                let (hits, us) = tr.leaf(kind.span(), || clock(|| epoch.search(user, &query, cfg)));
                tr.exit(root);
                self.check_search(epoch, user, &query, cfg, &hits, tr);
                us
            }
            ReadKind::Peers => {
                let (recs, us) = tr.leaf(kind.span(), || {
                    clock(|| epoch.recommend_peers(user, PeerRecConfig::defaults()))
                });
                tr.exit(root);
                let connected = epoch.db().connections_of(user);
                if recs
                    .iter()
                    .any(|r| r.user == user || connected.contains(&r.user))
                {
                    self.violations.push(format!(
                        "recommend_peers({user}) proposed self or a connection"
                    ));
                }
                us
            }
            ReadKind::SimilarPeers => {
                let (got, us) = tr.leaf(kind.span(), || clock(|| epoch.similar_peers(user, 10)));
                tr.exit(root);
                let want = similar_peers_reference(epoch, user, 10);
                if bits(&got) != bits(&want) {
                    self.violations.push(format!(
                        "similar_peers({user}) differs from the reference ranking"
                    ));
                }
                us
            }
            ReadKind::Resources => {
                let (hits, us) = tr.leaf(kind.span(), || {
                    clock(|| epoch.recommend_resources(user, DiscoverConfig::defaults()))
                });
                tr.exit(root);
                self.check_ranked(&format!("recommend_resources({user})"), &hits, 10);
                us
            }
            ReadKind::Explain => {
                let mut other = self.user(&users);
                if other == user {
                    other = users[(user.index() + 1) % users.len()];
                }
                let (_, us) = tr.leaf(kind.span(), || {
                    clock(|| epoch.explain_relationship(user, other))
                });
                tr.exit(root);
                us
            }
            ReadKind::Highlights => {
                let since = feed_window(epoch.db());
                let (_, us) = tr.leaf(kind.span(), || clock(|| epoch.highlights(user, since, 10)));
                tr.exit(root);
                us
            }
            ReadKind::History => {
                let needle = NEEDLES[self.rng.gen_range(0..NEEDLES.len())];
                let query = HistoryQuery::new()
                    .with_actors(vec![user])
                    .matching(needle)
                    .limit(20);
                let (hits, us) = tr.leaf(kind.span(), || {
                    clock(|| epoch.search_history(&query, Some(user)))
                });
                tr.exit(root);
                for h in &hits {
                    let text = touched_text(epoch.db(), &h.record.event).to_lowercase();
                    if h.record.user != user || !text.contains(needle) {
                        self.violations.push(format!(
                            "history hit {:?} fails actor {user} / needle {needle:?}",
                            h.record
                        ));
                    }
                }
                us
            }
        };
        samples.all_us.push(us);
        samples.by_kind.entry(kind).or_default().push(us);
    }

    fn check_ranked(&mut self, what: &str, hits: &[SearchHit], k: usize) {
        let sorted = hits.windows(2).all(|w| w[0].score >= w[1].score);
        let finite = hits.iter().all(|h| h.score.is_finite());
        let mut seen: Vec<_> = hits.iter().map(|h| h.resource).collect();
        seen.sort();
        seen.dedup();
        if !sorted || !finite || seen.len() != hits.len() || hits.len() > k {
            self.violations.push(format!(
                "{what}: {} hits, sorted {sorted}, finite {finite}, distinct {}",
                hits.len(),
                seen.len()
            ));
        }
    }

    /// Method properties of every search, and every
    /// [`MEMO_CHECK_EVERY`]-th one replayed over a fresh PPR cache: the
    /// memo must return exactly what a cold solve returns. In the
    /// traced run the replay also times the PPR solve (fresh cache)
    /// against a repeat on the now-warm cache.
    fn check_search(
        &mut self,
        epoch: &Epoch,
        user: UserId,
        query: &str,
        cfg: DiscoverConfig,
        hits: &[SearchHit],
        tr: &mut Tracer,
    ) {
        self.check_ranked(
            &format!("search({user}, {query:?})"),
            hits,
            cfg.common.top_k,
        );
        self.searches += 1;
        if !self.searches.is_multiple_of(MEMO_CHECK_EVERY) {
            return;
        }
        let (db, kn, idx) = (epoch.db(), epoch.knowledge(), epoch.indexes());
        let fresh = untraced(|| {
            let ctx = epoch.activity_context(user);
            let cache = PprCache::new();
            let fresh = tr.leaf("ppr.fresh_search", || {
                discover::search(db, kn, idx, &cache, &ctx, query, cfg)
            });
            if tr.enabled() {
                tr.leaf("ppr.warm_search", || {
                    discover::search(db, kn, idx, &cache, &ctx, query, cfg)
                });
            }
            fresh
        });
        if hit_bits(hits) != hit_bits(&fresh) {
            self.violations.push(format!(
                "search({user}, {query:?}) from the memo differs from a fresh solve"
            ));
        }
    }
}

/// The feed window: the last quarter of the platform's clock.
fn feed_window(db: &HiveDb) -> Timestamp {
    let now = db.now().ticks();
    Timestamp(now - now / 4)
}

/// `similar_peers` as specified: every other user ranked by knowledge
/// network similarity (positive only), highest first, ties by id.
fn similar_peers_reference(epoch: &Epoch, user: UserId, k: usize) -> Vec<(UserId, f64)> {
    let kn = epoch.knowledge();
    let mut all: Vec<(UserId, f64)> = epoch
        .db()
        .user_ids()
        .into_iter()
        .filter(|&v| v != user)
        .map(|v| (v, kn.user_similarity(user, v)))
        .filter(|&(_, s)| s > 0.0)
        .collect();
    all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// The text of the resource an activity touched (what a history needle
/// is matched against).
fn touched_text(db: &HiveDb, event: &ActivityEvent) -> String {
    let text = match *event {
        ActivityEvent::CheckIn(s) => db.get_session(s).map(|x| x.text()),
        ActivityEvent::ViewPaper(p) => db.get_paper(p).map(|x| x.text()),
        ActivityEvent::ViewPresentation(p)
        | ActivityEvent::UploadPresentation(p)
        | ActivityEvent::ReviseSlides(p) => db.get_presentation(p).map(|x| x.slides_text.clone()),
        ActivityEvent::AskQuestion(q) => db.get_question(q).map(|x| x.text.clone()),
        ActivityEvent::AnswerQuestion(a) => db.get_answer(a).map(|x| x.text.clone()),
        ActivityEvent::Comment(c) => db.get_comment(c).map(|x| x.text.clone()),
        _ => return String::new(),
    };
    text.unwrap_or_default()
}

fn bits(xs: &[(UserId, f64)]) -> Vec<(UserId, u64)> {
    xs.iter().map(|&(u, s)| (u, s.to_bits())).collect()
}

fn hit_bits(hits: &[SearchHit]) -> Vec<String> {
    hits.iter()
        .map(|h| format!("{:?} {:x} {}", h.resource, h.score.to_bits(), h.title))
        .collect()
}

/// A fixed set of reads whose rendered results (floats printed exactly)
/// identify an epoch's observable state. Two epochs that must be
/// bit-identical yield equal fingerprints.
pub fn fingerprint(epoch: &Epoch) -> String {
    let users = epoch.db().user_ids();
    let picks = [
        users[0],
        users[users.len() / 3],
        users[users.len() / 2],
        users[users.len() - 1],
    ];
    let since = feed_window(epoch.db());
    let mut out = String::new();
    for &u in &picks {
        let hits = epoch.search(u, "graph stream query", DiscoverConfig::defaults());
        out.push_str(&format!("{:?}\n", hit_bits(&hits)));
        out.push_str(&format!("{:?}\n", bits(&epoch.similar_peers(u, 10))));
        let peers: Vec<(UserId, u64)> = epoch
            .recommend_peers(u, PeerRecConfig::defaults())
            .iter()
            .map(|r| (r.user, r.score.to_bits()))
            .collect();
        out.push_str(&format!("{peers:?}\n"));
        out.push_str(&format!("{:?}\n", epoch.explain_relationship(u, picks[0])));
        out.push_str(&format!("{:?}\n", epoch.highlights(u, since, 10)));
    }
    out
}

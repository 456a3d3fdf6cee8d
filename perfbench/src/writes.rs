//! The seeded write stream.
//!
//! Every write is one [`ReplOp`] chosen against the current database so
//! that the platform must accept it: follows of pairs that do not follow
//! yet, connection requests between unrelated users, acceptances of
//! pending requests, check-ins, questions, answers, paper views and
//! workpad edits. Every [`CREATE_EVERY`]-th write creates an entity (a
//! user or a paper), so the create share is exact in every window of
//! that length.

use hive_core::ids::{PaperId, UserId};
use hive_core::model::{ActivityEvent, Paper, QaTarget, User};
use hive_core::sim::{topic_abstract, topic_phrase, topic_question, topic_title};
use hive_core::HiveDb;
use hive_replica::ops::{
    AnswerQuestionOp, AskQuestionOp, CheckInOp, CreateWorkpadOp, FollowOp, RequestConnectionOp,
    RespondConnectionOp, ViewPaperOp, WorkpadNoteOp,
};
use hive_replica::ReplOp;
use hive_rng::{Rng, SliceRandom};

/// One write in this many creates an entity.
pub const CREATE_EVERY: u64 = 10;

/// Topics the generated text is drawn from (every world has at least
/// this many).
const TOPICS: usize = 8;

/// Input class of a write, and of the publish that follows it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteClass {
    /// Creates no entity (its delta is patchable).
    Update,
    /// Creates a user or a paper.
    Create,
}

impl WriteClass {
    /// `update` or `create`, by class.
    pub fn pick<T>(self, update: T, create: T) -> T {
        match self {
            WriteClass::Update => update,
            WriteClass::Create => create,
        }
    }
}

/// Seeded generator of writes the platform must accept.
pub struct WriteGen {
    rng: Rng,
    issued: u64,
}

impl WriteGen {
    /// A generator whose stream is a pure function of `seed` and of the
    /// database states it is shown.
    pub fn new(seed: u64) -> WriteGen {
        WriteGen {
            rng: Rng::seed_from_u64(seed),
            issued: 0,
        }
    }

    /// The next write against `db`, with its class.
    pub fn next(&mut self, db: &HiveDb) -> (ReplOp, WriteClass) {
        let n = self.issued;
        self.issued += 1;
        if n % CREATE_EVERY == CREATE_EVERY - 1 {
            (self.create(db, n), WriteClass::Create)
        } else {
            (self.update(db, n), WriteClass::Update)
        }
    }

    fn user(&mut self, db: &HiveDb) -> UserId {
        let users = db.user_ids();
        users[self.rng.gen_range(0..users.len())]
    }

    fn paper(&mut self, db: &HiveDb) -> PaperId {
        let papers = db.paper_ids();
        papers[self.rng.gen_range(0..papers.len())]
    }

    fn pair(&mut self, db: &HiveDb) -> (UserId, UserId) {
        let users = db.user_ids();
        let a = self.rng.gen_range(0..users.len());
        let mut b = self.rng.gen_range(0..users.len() - 1);
        if b >= a {
            b += 1;
        }
        (users[a], users[b])
    }

    fn create(&mut self, db: &HiveDb, n: u64) -> ReplOp {
        let topic = self.rng.gen_range(0..TOPICS);
        if self.rng.gen_bool(0.5) {
            let user = User::new(format!("Benchmark Researcher {n}"), "Benchmark Institute")
                .with_interests(vec![topic_phrase(topic, &mut self.rng)]);
            return ReplOp::AddUser(user);
        }
        let users = db.user_ids();
        let n_authors = self.rng.gen_range(1..=3usize);
        let authors: Vec<UserId> = users
            .choose_multiple(&mut self.rng, n_authors)
            .copied()
            .collect();
        let n_cites = self.rng.gen_range(0..3usize);
        let cites: Vec<PaperId> = db
            .paper_ids()
            .choose_multiple(&mut self.rng, n_cites)
            .copied()
            .collect();
        let mut paper = Paper::new(topic_title(topic, &mut self.rng), authors)
            .with_abstract(topic_abstract(topic, &mut self.rng))
            .citing(cites);
        if let Some(&venue) = db.conference_ids().choose(&mut self.rng) {
            paper = paper.at_venue(venue);
        }
        ReplOp::AddPaper(paper)
    }

    /// A non-creating write. Kinds whose precondition the drawn users do
    /// not meet fall back to a paper view, which is always accepted.
    fn update(&mut self, db: &HiveDb, n: u64) -> ReplOp {
        const TRIES: usize = 8;
        let roll = self.rng.gen_range(0..100u32);
        let picked = match roll {
            0..=19 => (0..TRIES).find_map(|_| {
                let (follower, followee) = self.pair(db);
                (!db.is_following(follower, followee))
                    .then_some(ReplOp::Follow(FollowOp { follower, followee }))
            }),
            20..=29 => (0..TRIES).find_map(|_| {
                let (from, to) = self.pair(db);
                let unrelated = !db.are_connected(from, to)
                    && !db.pending_requests_for(to).contains(&from)
                    && !db.pending_requests_for(from).contains(&to);
                unrelated.then_some(ReplOp::RequestConnection(RequestConnectionOp { from, to }))
            }),
            30..=39 => (0..TRIES).find_map(|_| {
                let to = self.user(db);
                let pending = db.pending_requests_for(to);
                pending.choose(&mut self.rng).map(|&from| {
                    ReplOp::RespondConnection(RespondConnectionOp {
                        to,
                        from,
                        accept: true,
                    })
                })
            }),
            40..=54 => {
                let user = self.user(db);
                db.session_ids()
                    .choose(&mut self.rng)
                    .map(|&session| ReplOp::CheckIn(CheckInOp { user, session }))
            }
            55..=64 => {
                let author = self.user(db);
                let topic = self.rng.gen_range(0..TOPICS);
                db.session_ids().choose(&mut self.rng).map(|&s| {
                    ReplOp::AskQuestion(AskQuestionOp {
                        author,
                        target: QaTarget::Session(s),
                        text: topic_question(topic, &mut self.rng),
                        broadcast: false,
                    })
                })
            }
            65..=74 => {
                let author = self.user(db);
                let topic = self.rng.gen_range(0..TOPICS);
                db.question_ids()
                    .choose(&mut self.rng)
                    .copied()
                    .map(|question| {
                        ReplOp::AnswerQuestion(AnswerQuestionOp {
                            author,
                            question,
                            text: topic_phrase(topic, &mut self.rng),
                        })
                    })
            }
            75..=84 => {
                let user = self.user(db);
                let topic = self.rng.gen_range(0..TOPICS);
                Some(match db.active_workpad_of(user) {
                    Some(pad) => ReplOp::WorkpadNote(WorkpadNoteOp {
                        user,
                        pad,
                        text: topic_phrase(topic, &mut self.rng),
                    }),
                    None => ReplOp::CreateWorkpad(CreateWorkpadOp {
                        owner: user,
                        name: format!("benchmark pad {n}"),
                    }),
                })
            }
            _ => None,
        };
        picked.unwrap_or_else(|| {
            let user = self.user(db);
            ReplOp::ViewPaper(ViewPaperOp {
                user,
                paper: self.paper(db),
            })
        })
    }
}

/// How many facts matching `op` the database holds. An accepted write
/// raises it by exactly one; this is recomputed from the public read
/// API, independently of the code that applied the write.
pub fn witness(db: &HiveDb, op: &ReplOp) -> usize {
    match op {
        ReplOp::AddUser(u) => db
            .user_ids()
            .into_iter()
            .filter(|&id| db.get_user(id).is_ok_and(|x| x.name == u.name))
            .count(),
        ReplOp::AddPaper(p) => db
            .paper_ids()
            .into_iter()
            .filter(|&id| {
                db.get_paper(id)
                    .is_ok_and(|x| x.title == p.title && x.authors == p.authors)
            })
            .count(),
        ReplOp::Follow(o) => usize::from(db.is_following(o.follower, o.followee)),
        ReplOp::RequestConnection(o) => {
            usize::from(db.pending_requests_for(o.to).contains(&o.from))
        }
        ReplOp::RespondConnection(o) => usize::from(db.are_connected(o.to, o.from)),
        ReplOp::CheckIn(o) => db
            .checkins_of(o.user)
            .iter()
            .filter(|c| c.session == o.session)
            .count(),
        ReplOp::AskQuestion(o) => db
            .questions_on(o.target)
            .iter()
            .filter(|&&q| {
                db.get_question(q)
                    .is_ok_and(|x| x.author == o.author && x.text == o.text)
            })
            .count(),
        ReplOp::AnswerQuestion(o) => db
            .answers_to(o.question)
            .iter()
            .filter(|&&a| {
                db.get_answer(a)
                    .is_ok_and(|x| x.author == o.author && x.text == o.text)
            })
            .count(),
        ReplOp::ViewPaper(o) => db
            .activities_of(o.user)
            .iter()
            .filter(|r| r.event == ActivityEvent::ViewPaper(o.paper))
            .count(),
        ReplOp::WorkpadNote(o) => db
            .get_workpad(o.pad)
            .map_or(0, |w| w.notes.iter().filter(|t| **t == o.text).count()),
        ReplOp::CreateWorkpad(o) => db
            .workpads_of(o.owner)
            .iter()
            .filter(|&&w| db.get_workpad(w).is_ok_and(|x| x.name == o.name))
            .count(),
        // The generator emits none of the other kinds.
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_core::sim::{SimConfig, WorldBuilder};
    use hive_core::Hive;

    #[test]
    fn every_write_is_accepted_and_visible_at_the_stated_create_share() {
        let mut hive = Hive::new(WorldBuilder::new(SimConfig::small()).build().db);
        let mut gen = WriteGen::new(7);
        let mut creates = 0;
        let mut kinds = std::collections::BTreeSet::new();
        for i in 0..600 {
            let (op, class) = gen.next(hive.db());
            let before = witness(hive.db(), &op);
            let created = matches!(op, ReplOp::AddUser(_) | ReplOp::AddPaper(_));
            assert_eq!(created, class == WriteClass::Create, "write {i}: {op:?}");
            let gen_before = hive.db().generation();
            hive_replica::ops::apply(&op, &mut hive)
                .unwrap_or_else(|e| panic!("write {i} ({}) rejected: {e}", op.label()));
            assert!(
                hive.db().generation() > gen_before,
                "write {i} changed nothing"
            );
            // Only the create class journals a structural delta, so no
            // update-class sample pays for an entity creation.
            let structural = hive
                .db()
                .deltas_since(gen_before)
                .is_some_and(|d| d.iter().any(|d| d.is_structural()));
            assert_eq!(structural, class == WriteClass::Create, "write {i}: {op:?}");
            assert_eq!(witness(hive.db(), &op), before + 1, "write {i}: {op:?}");
            creates += usize::from(created);
            kinds.insert(op.label());
        }
        assert_eq!(creates, 60, "one write in {CREATE_EVERY} creates");
        // Every kind of the mix shows up.
        for k in ["follow", "add-user", "add-paper", "check-in", "view-paper"] {
            assert!(kinds.contains(k), "{k} missing from {kinds:?}");
        }
        assert!(kinds.len() >= 9, "{kinds:?}");
    }

    #[test]
    fn the_stream_is_a_function_of_the_seed() {
        let db = WorldBuilder::new(SimConfig::small()).build().db;
        let run = |seed| {
            let mut g = WriteGen::new(seed);
            (0..40)
                .map(|_| format!("{:?}", g.next(&db).0))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}

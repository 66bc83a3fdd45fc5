//! Batched request scoring (`InitialRanker::scores`, which
//! `rank_scored` and `rank` are built on) must equal per-pair
//! `InitialRanker::score` bit for bit, for every initial ranker, so the
//! pipeline can take a list's initial scores from the ranking pass.

use rapid_data::{generate, DataConfig, Dataset, Flavor};
use rapid_gbdt::LambdaMartParams;
use rapid_rankers::{Din, DinConfig, InitialRanker, LambdaMartRanker, SvmRank, SvmRankConfig};

fn world(flavor: Flavor) -> Dataset {
    let mut c = DataConfig::new(flavor);
    c.num_users = 40;
    c.num_items = 200;
    c.ranker_train_interactions = 1500;
    c.rerank_train_requests = 20;
    c.test_requests = 20;
    generate(&c)
}

fn rankers(ds: &Dataset) -> Vec<Box<dyn InitialRanker>> {
    vec![
        Box::new(Din::fit(
            ds,
            &DinConfig {
                epochs: 1,
                hidden: 16,
                ..DinConfig::default()
            },
        )),
        Box::new(SvmRank::fit(
            ds,
            &SvmRankConfig {
                epochs: 3,
                ..SvmRankConfig::default()
            },
        )),
        Box::new(LambdaMartRanker::fit(
            ds,
            &LambdaMartParams {
                num_trees: 15,
                ..LambdaMartParams::default()
            },
        )),
    ]
}

#[test]
fn batched_scores_equal_per_pair_scores_bit_for_bit() {
    for flavor in [Flavor::MovieLens, Flavor::Taobao] {
        let ds = world(flavor);
        for ranker in rankers(&ds) {
            for req in ds.rerank_train.iter().chain(&ds.test) {
                let batched: Vec<u32> = ranker
                    .scores(&ds, req)
                    .iter()
                    .map(|s| s.to_bits())
                    .collect();
                let single: Vec<u32> = req
                    .candidates
                    .iter()
                    .map(|&v| ranker.score(&ds, req.user, v).to_bits())
                    .collect();
                assert_eq!(batched, single, "{} on {flavor:?}", ranker.name());

                let (items, scores) = ranker.rank_scored(&ds, req);
                assert_eq!(items, ranker.rank(&ds, req));
                for (&v, &s) in items.iter().zip(&scores) {
                    assert_eq!(s.to_bits(), ranker.score(&ds, req.user, v).to_bits());
                }
            }
        }
    }
}

//! The traced run's graph counts are exact: they repeat for a fixed
//! input and move when the recorded graph changes shape.

use perfbench::layers::{train_steps, GraphCounts};
use rapid_core::{Rapid, RapidConfig};
use rapid_data::Flavor;
use rapid_eval::{ExperimentConfig, Pipeline, Scale};

fn counts(seed: u64, list_len: usize) -> GraphCounts {
    let mut config = ExperimentConfig::new(Flavor::MovieLens, Scale::Quick);
    config.seed = seed;
    config.data.seed = seed;
    config.data.num_users = 30;
    config.data.num_items = 200;
    config.data.ranker_train_interactions = 600;
    config.data.rerank_train_requests = 8;
    config.data.test_requests = 2;
    config.data.list_len = list_len;
    let pipeline = Pipeline::prepare(config);
    let ds = pipeline.dataset();
    let rapid = Rapid::new(
        ds,
        RapidConfig {
            seed,
            ..RapidConfig::probabilistic()
        },
    );
    train_steps(ds, &rapid, &pipeline.cache().train, 2, 4).0
}

#[test]
fn graph_counts_repeat_exactly_and_follow_the_graph_shape() {
    let a = counts(7, 20);
    let b = counts(7, 20);
    assert_eq!(a, b, "counts must repeat exactly for a fixed seed");
    assert!(a.tape_nodes_per_list > 0.0 && a.matmul_flops_per_list > 0.0);
    assert!(a.grad_bytes_per_list > 0.0 && a.value_bytes_per_list > 0.0);

    // Every list of a world has the same length and topic count, so the
    // recorded graph, and every count, is the same on another seed...
    assert_eq!(counts(8, 20), a);
    // ...and differs when the inputs' shape does.
    let short = counts(7, 12);
    assert_ne!(short.tape_nodes_per_list, a.tape_nodes_per_list);
    assert!(short.matmul_flops_per_list < a.matmul_flops_per_list);
    assert!(short.value_bytes_per_list < a.value_bytes_per_list);
}

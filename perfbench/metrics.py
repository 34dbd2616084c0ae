"""Names and units of every metric the benchmark reports; BENCHMARK.json
lists the same names."""

# untraced; each the median over the run's repetitions
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "predict_records_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# name -> unit; "setup" metrics are per setup repetition, the rest per unit of
# the timed phase, each the median over the traced repetitions.
PER_LAYER = {
    "omics.load_expression_s": "s",
    "omics.expression_feature_set_s": "s",
    "omics.load_embeddings_s": "s",
    "omics.load_responses_s": "s",
    "omics.join_dataset_s": "s",
    "omics.us_per_value": "us",
    "molgraph.load_drug_manifest_s": "s",
    "molgraph.pad_graph_s": "s",
    "molgraph.pad_fill_ratio": "ratio",
    "molgraph.bonds_per_atom": "ratio",
    "model.load_checkpoint_s": "s",
    "model.encode_drug_ms": "ms",
    "model.encode_drug_calls": "count",
    "model.encodes_per_distinct_drug": "ratio",
    "model.distinct_drugs_per_batch": "count",
    "model.encode_cell_ms": "ms",
    "model.predict_ms": "ms",
    "autodiff.backward_ms": "ms",
    "autodiff.tape_nodes_per_step": "count",
    "autodiff.tape_nodes_per_predict": "count",
    "autodiff.adam_step_ms": "ms",
    "autodiff.param_count": "count",
    "training.step_ms_p50": "ms",
    "training.step_ms_p90": "ms",
    "training.step_coverage_pct": "%",
    "training.validation_ms": "ms",
    "training.records_per_s": "1/s",
    "evaluation.build_eval_report_ms": "ms",
    "evaluation.pearson_calls": "count",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}

"""Names and units of the metrics the benchmark reports; BENCHMARK.json lists
the same names."""

# CLI commands; each has a root span cli.<command> in the traced run
COMMANDS = ("validate", "weyl", "twist", "irreps", "mult", "ext", "battery")

END_TO_END = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("job_p50_s", "s"),
]

PER_LAYER = [
    # fields (counting pass)
    ("fields.q_ops", "count"),
    ("fields.fe_ops", "count"),
    ("fields.fe_is_zero", "count"),
    ("fields.fe_inverse", "count"),
    # linalg
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.rref.cells", "count"),
    ("linalg.rref.nnz", "count"),
    ("linalg.Matrix.apply.calls", "count"),
    ("linalg.Matrix.apply.self_s", "s"),
    ("linalg.Matrix.matmul.self_s", "s"),
    ("linalg.Matrix.nullspace.calls", "count"),
    ("linalg.Matrix.nullspace.total_s", "s"),
    ("linalg.saturate.calls", "count"),
    ("linalg.saturate.self_s", "s"),
    ("linalg.Subspace.add_vector.calls", "count"),
    ("linalg.Subspace.add_vector.self_s", "s"),
    ("linalg.joint_eigenspaces.calls", "count"),
    ("linalg.joint_eigenspaces.total_s", "s"),
    ("linalg.restrict_operator.total_s", "s"),
    # weyl
    ("weyl.weyl_module.calls", "count"),
    ("weyl.weyl_module.total_s", "s"),
    ("weyl.build.calls", "count"),
    ("weyl.build.self_s", "s"),
    ("weyl.monomials", "count"),
    ("weyl.Straightener.act.calls", "count"),
    ("weyl.twisted_weyl.total_s", "s"),
    # ema
    ("ema.InvariantAlgebra.init.calls", "count"),
    ("ema.InvariantAlgebra.init.self_s", "s"),
    ("ema.InvariantAlgebra.init.total_s", "s"),
    ("ema.evaluation_iso.total_s", "s"),
    ("ema.bracket_terms.calls", "count"),
    ("ema.bracket_terms.hit_ratio", "ratio"),
    # repmod
    ("repmod.hom_space.calls", "count"),
    ("repmod.hom_space.total_s", "s"),
    ("repmod.quotient_module.total_s", "s"),
    ("repmod.transport.total_s", "s"),
    ("repmod.evaluation_module.total_s", "s"),
    ("repmod.tensor_product.total_s", "s"),
    ("repmod.multiplicities.total_s", "s"),
    ("repmod.FiniteModule.check_bracket.total_s", "s"),
    # homology
    ("homology.CEComplex.build.calls", "count"),
    ("homology.CEComplex.build.self_s", "s"),
    ("homology.CEComplex.build.total_s", "s"),
    ("homology.CEComplex.h1.total_s", "s"),
    ("homology.d1.cells", "count"),
    ("homology.d1.nnz", "count"),
    ("homology.ext1_ladder.total_s", "s"),
    # liealg, scenario
    ("liealg.irreducible_module.calls", "count"),
    ("liealg.irreducible_module.total_s", "s"),
    ("scenario.load_scenario.calls", "count"),
    ("scenario.load_scenario.total_s", "s"),
    # cli root spans
    ("cli.validate.total_s", "s"),
    ("cli.weyl.total_s", "s"),
    ("cli.twist.total_s", "s"),
    ("cli.irreps.total_s", "s"),
    ("cli.mult.total_s", "s"),
    ("cli.ext.total_s", "s"),
    ("cli.battery.total_s", "s"),
    # the trace itself
    ("trace.overhead", "ratio"),
    ("trace.root_coverage", "ratio"),
    ("trace.ops_failed", "count"),
    ("count.ops_failed", "count"),
]

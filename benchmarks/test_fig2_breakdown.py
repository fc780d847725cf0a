"""Fig. 2 — breakdown of average execution time (CPU profile).

Paper: RK(Diffusion) 39.2 %, RK(Convection) 21.04 %, RK(Other) 16.13 %,
Non-RK 23.63 %; RK method 76.5 % of total.
"""

import pytest

from repro.experiments.fig2_breakdown import (
    PAPER_PERCENTAGES,
    render_fig2,
    run_fig2,
)


def test_fig2_breakdown(benchmark):
    result = benchmark(run_fig2)
    print()
    print(render_fig2(result))
    for key, paper_value in PAPER_PERCENTAGES.items():
        assert result.percentages[key] == pytest.approx(paper_value, abs=2.5)
    assert result.rk_total_percent == pytest.approx(76.5, abs=2.5)
    benchmark.extra_info.update(
        {f"model_{k}": round(v, 2) for k, v in result.percentages.items()}
    )
    benchmark.extra_info.update(
        {f"paper_{k}": v for k, v in PAPER_PERCENTAGES.items()}
    )


def test_fig2_wallclock_crosscheck(benchmark):
    """Wall-clock profile of the *functional* numpy solver: must show the
    same hotspot ordering the paper measured (diffusion > convection)."""
    from repro.mesh.hexmesh import periodic_box_mesh
    from repro.physics.taylor_green import DEFAULT_TGV
    from repro.solver.simulation import Simulation

    def profile_run():
        # The paper profiled unfused C++: keep the two passes separate.
        sim = Simulation(periodic_box_mesh(4, 2), DEFAULT_TGV, fusion="none")
        sim.run(5)
        return sim.profiler

    profiler = benchmark.pedantic(profile_run, rounds=1, iterations=1)
    breakdown = profiler.breakdown()
    assert breakdown.rk_diffusion > breakdown.rk_convection
    assert breakdown.rk_total > 0.5
    benchmark.extra_info["wallclock_diffusion_share"] = round(
        breakdown.rk_diffusion, 3
    )

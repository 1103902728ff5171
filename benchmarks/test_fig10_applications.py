"""Figure 10: throughput of eight real-world applications vs cores.

Paper: EasyIO achieves 2.1x (Snappy), 2.1x (Grep), 1.5x (KNN), 2.3x
(BFS) and 2.3x (Fileserver) higher throughput than NOVA as workers
grow; JPGDecoder and AES (computation-dominated) gain only slightly;
under the Webserver's shared-log contention EasyIO trails Odinfs.
"""

from benchmarks.conftest import run_once, show
from repro.analysis.report import banner, fmt_table
from repro.analysis.sweep import app_point, run_points

CORES = [2, 4, 8, 12, 16]
#: Paper speedups over NOVA and the bands we assert (min, max).
PAPER = {
    "snappy": (2.1, 1.5, 2.6),
    "jpgdecoder": (1.03, 0.95, 1.45),
    "aes": (1.05, 0.95, 1.3),
    "grep": (2.1, 1.5, 2.6),
    "knn": (1.5, 1.25, 1.9),
    "bfs": (2.3, 1.5, 2.6),
    "fileserver": (2.3, 1.5, 2.6),
}
KINDS = ["nova", "nova-dma", "odinfs", "easyio"]
DURATION = {"jpgdecoder": 120_000}


def reproduce():
    """Every (app, fs, cores) point on one pool; Odinfs stops at 12."""
    apps = list(PAPER) + ["webserver"]
    grid = [(app, kind, cores) for app in apps for kind in KINDS
            for cores in CORES if not (kind == "odinfs" and cores > 12)]
    results = run_points(app_point, [
        {"kind": kind, "app_name": app, "cores": cores,
         "duration_us": DURATION.get(app, 25_000),
         "warmup_us": DURATION.get(app, 25_000) // 5}
        for app, kind, cores in grid])
    data = {app: {kind: [] for kind in KINDS} for app in apps}
    for (app, kind, cores), r in zip(grid, results):
        data[app][kind].append((cores, r["throughput_ops"]))
    return data


def test_fig10_real_world_applications(benchmark):
    data = run_once(benchmark, reproduce)
    rows = []
    for app, panel in data.items():
        show(banner(f"Figure 10: {app}"))
        table = [[kind] + [f"{tp:.0f}" for _c, tp in pts]
                 for kind, pts in panel.items()]
        show(fmt_table(["fs"] + [f"{c}c" for c in CORES], table))
        nova = dict(panel["nova"])
        easy = dict(panel["easyio"])
        best = max(easy[c] / nova[c] for c in nova if c in easy and nova[c])
        paper = PAPER.get(app, (None,) * 3)[0]
        rows.append([app, f"{best:.2f}x", f"{paper}x" if paper else "-"])
    show(banner("Figure 10 summary: max EasyIO speedup over NOVA"))
    show(fmt_table(["app", "measured", "paper"], rows))

    # Per-app speedup bands.
    for app, (paper, lo, hi) in PAPER.items():
        nova = dict(data[app]["nova"])
        easy = dict(data[app]["easyio"])
        best = max(easy[c] / nova[c] for c in nova if c in easy and nova[c])
        assert lo <= best <= hi, \
            f"{app}: speedup {best:.2f}x outside [{lo}, {hi}] (paper {paper}x)"
    # Compute-dominated apps gain less than I/O-bound apps.
    def best_ratio(app):
        nova = dict(data[app]["nova"])
        easy = dict(data[app]["easyio"])
        return max(easy[c] / nova[c] for c in nova if c in easy and nova[c])
    assert best_ratio("jpgdecoder") < best_ratio("snappy")
    assert best_ratio("aes") < best_ratio("grep")
    # Webserver (shared-log contention): Odinfs beats EasyIO somewhere
    # in the sweep (the paper's §6.6 limitation).
    web = data["webserver"]
    odin = dict(web["odinfs"])
    easy = dict(web["easyio"])
    assert any(odin[c] > easy[c] for c in odin if c in easy), \
        "Odinfs should lead the webserver under contention"
    # NOVA-DMA never exceeds EasyIO on the I/O-bound apps (sync DMA
    # leaves no cycles to harvest).
    for app in ("snappy", "grep", "bfs"):
        nd = dict(data[app]["nova-dma"])
        easy = dict(data[app]["easyio"])
        assert all(easy[c] >= nd[c] * 0.95 for c in nd if c in easy)

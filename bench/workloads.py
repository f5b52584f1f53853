"""The benchmark workloads.

Each workload is a closed-loop batch job run from one process: the next job
starts when the previous one returns.  A workload makes its inputs from the
seed (`inputs`), builds the target and schedule (`build`, timed as set-up),
runs one job through ulmc's public functions (`run`, timed), and checks the
job's outputs (`check`, a list of failure messages).  `chain_steps` is the
number of chain-steps one job completes.

BENCHMARKED names the workloads BENCHMARK.json lists.  `chains` and
`coupled` run only when asked for by name: their jobs are bound by the
interpreter's per-call overhead, and on a shared host their job times
drift by a factor of up to two over minutes, so ten runs spread by more
than a 25 % bound however long each run is.  Compare them by hand with
alternating runs of the parent and the change.
"""

from __future__ import annotations

import os

import numpy as np

import gates


class Ensemble:
    name = "ensemble"
    why = ("criterion 3's quadratic (d=10, kappa=100) at 1e4 chains, checked against the "
           "moment oracle: increment sampling dominates and the gradient is nearly free")
    dim, kappa, h, n_steps, chains, record_every = 10, 100.0, 0.05, 100, 10_000, 10

    def inputs(self, seed):
        return {"seed": seed}

    def build(self, ulmc, inputs):
        target = ulmc.quadratic_target(np.linspace(1.0, self.kappa, self.dim), np.zeros(self.dim))
        sched = ulmc.Schedule(h=self.h, N=self.n_steps, u=1.0 / target.smoothness)
        return {"ulmc": ulmc, "target": target, "sched": sched, "seed": inputs["seed"]}

    def run(self, ctx):
        ulmc = ctx["ulmc"]
        ens = ulmc.rmm_run_ensemble(ctx["target"], ctx["sched"], self.chains, ctx["seed"],
                                    record_every=self.record_every)
        oracle = ulmc.rmm_moment_oracle(ctx["target"], self.h, self.n_steps,
                                        record_every=self.record_every)
        return ens, oracle

    def check(self, ctx, out):
        ens, oracle = out
        failures = gates.grad_evals_gate(ens.grad_evals, 2 * self.chains * self.n_steps,
                                         self.name)
        failures += gates.finite_gate(self.name, ens.x, ens.v)
        if not oracle.quadrature_error < 1e-9:
            failures.append(f"oracle quadrature error {oracle.quadrature_error} >= 1e-9")
        moments = {s: (m, c) for s, m, c in zip(oracle.steps, oracle.means, oracle.covs)}
        failures += gates.moment_gate(ens.checkpoints, moments, self.chains,
                                      self.n_steps // self.record_every)
        return failures

    def chain_steps(self, ctx):
        return self.chains * self.n_steps


class Chains:
    name = "chains"
    why = ("`ulmc sample` in-process once per method at 20 chains: per-step overhead of the "
           "one-chain-at-a-time route and its scalar increment samplers dominates")
    methods = ("rmm", "rmm_parallel", "euler_uld", "exp_euler_uld", "lmc")
    quad_diag, dim, h, n_steps, chains, r_mid, k_iters = "1,4", 2, 0.05, 50, 20, 4, 3

    def inputs(self, seed):
        return {"seed": seed}

    def build(self, ulmc, inputs):
        return {"ulmc": ulmc, "seed": inputs["seed"], "digests": {},
                "out": os.path.join(inputs["out_dir"], f"chains-{os.getpid()}.csv")}

    def argv(self, ctx, method):
        return ["sample", "--quad-diag", self.quad_diag, "--method", method,
                "--h", repr(self.h), "--n-steps", str(self.n_steps),
                "--chains", str(self.chains), "--r-midpoints", str(self.r_mid),
                "--k-iters", str(self.k_iters), "--seed", str(ctx["seed"]),
                "--out", ctx["out"]]

    def run(self, ctx):
        cli = ctx["ulmc"].cli
        out = {}
        for method in self.methods:
            code = cli.main(self.argv(ctx, method))
            with open(ctx["out"], "rb") as fh:
                out[method] = (code, fh.read())
        return out

    def grads_per_step(self, method):
        return {"rmm": 2, "rmm_parallel": self.r_mid * self.k_iters}.get(method, 1)

    def check(self, ctx, out):
        failures = []
        for method, (code, data) in out.items():
            label = f"{self.name}/{method}"
            if code != 0:
                failures.append(f"{label}: exit code {code}")
                continue
            expected = self.grads_per_step(method) * self.chains * self.n_steps
            failures += gates.sample_csv_gate(data.decode("utf-8"), self.chains, self.dim,
                                              expected, label)
            digest = gates.digest(data)
            reference = ctx["digests"].setdefault(method, digest)
            failures += gates.digest_gate(digest, reference, label)
        return failures

    def chain_steps(self, ctx):
        return len(self.methods) * self.chains * self.n_steps


class Coupled:
    name = "coupled"
    why = ("criterion 5's strong-error experiment (d=4, kappa=10, T=10, refinement 32) at "
           "2 chains: path refinement and assembly dominate; no other workload runs them")
    h_values, total_time, refinement, chains = (0.025, 0.05, 0.1, 0.2), 10.0, 32, 2

    def inputs(self, seed):
        return {"seed": seed}

    def build(self, ulmc, inputs):
        target = ulmc.quadratic_target(np.linspace(1.0, 10.0, 4), np.zeros(4))
        return {"ulmc": ulmc, "target": target, "seed": inputs["seed"]}

    def steps(self):
        coarse = [round(self.total_time / h) for h in self.h_values]
        return round(self.total_time / min(self.h_values)) * self.refinement, coarse

    def run(self, ctx):
        ulmc = ctx["ulmc"]
        counter = ulmc.targets.GradientCounter(ctx["target"])
        result = ulmc.coupled_error_experiment(
            counter.wrapped(), list(self.h_values), self.total_time, ctx["seed"],
            reference_refinement=self.refinement, chains=self.chains,
        )
        return result, counter.count

    def check(self, ctx, out):
        result, grad_evals = out
        n_ref, coarse = self.steps()
        # reference and frozen-gradient steps take one gradient, rmm two
        expected = self.chains * (n_ref + 3 * sum(coarse))
        failures = gates.grad_evals_gate(grad_evals, expected, self.name)
        return failures + gates.coupled_gate(result.rows, result.slopes)

    def chain_steps(self, ctx):
        n_ref, coarse = self.steps()
        return self.chains * (n_ref + 2 * sum(coarse))


class Logistic:
    name = "logistic"
    why = ("rmm ensemble on a seeded ridge-logistic posterior (n=1000, d=50, 1e3 chains): "
           "the gradient oracle dominates, the opposite of ensemble")
    n, dim, lam, h, n_steps, chains = 1000, 50, 1e-2, 0.05, 40, 1000

    def inputs(self, seed):
        data_seq, chain_seq = np.random.SeedSequence(seed).spawn(2)
        rng = np.random.default_rng(data_seq)
        features = rng.standard_normal((self.n, self.dim))
        w_true = 2.0 * rng.standard_normal(self.dim) / np.sqrt(self.dim)
        prob = 1.0 / (1.0 + np.exp(-features @ w_true))
        labels = np.where(rng.uniform(size=self.n) < prob, 1.0, -1.0)
        return {"features": features, "labels": labels, "chain_seed": chain_seq}

    def build(self, ulmc, inputs):
        data = ulmc.Dataset(features=inputs["features"], labels=inputs["labels"])
        target = ulmc.logistic_target(data, self.lam)
        sched = ulmc.Schedule(h=self.h, N=self.n_steps, u=1.0 / target.smoothness)
        return {"ulmc": ulmc, "target": target, "sched": sched, "data": data,
                "seed": inputs["chain_seed"]}

    def run(self, ctx):
        return ctx["ulmc"].rmm_run_ensemble(ctx["target"], ctx["sched"], self.chains,
                                            ctx["seed"])

    def potential(self, data, theta):
        """f(theta) per row of theta, computed here from the generated data."""
        margins = (theta @ data.features.T) * data.labels
        return (0.5 * self.lam * np.sum(theta * theta, axis=-1)
                + np.mean(np.logaddexp(0.0, -margins), axis=-1))

    def check(self, ctx, ens):
        failures = gates.grad_evals_gate(ens.grad_evals, 2 * self.chains * self.n_steps,
                                         self.name)
        failures += gates.finite_gate(self.name, ens.x, ens.v)
        if failures:
            return failures
        data, mode = ctx["data"], ctx["target"].minimizer
        excess = float(np.mean(self.potential(data, ens.x)) - self.potential(data, mode))
        return gates.logistic_gate(excess, self.dim)

    def chain_steps(self, ctx):
        return self.chains * self.n_steps


class Convergence:
    name = "convergence"
    why = ("`ulmc convergence` in-process (d=10, kappa=2, eps=0.5, 5e3 chains): criterion 6's "
           "route from accuracy schedule to bootstrap W2 through the CLI, so the cli layer shows")
    # Criterion 6's own quadratic (d=5, kappa=10, 2e3 chains) steps arrays a
    # fifth this size, where per-call overhead dominates and job times spread
    # three times as widely on a shared host.
    quad_diag, eps, chains = np.linspace(1.0, 2.0, 10), 0.5, 5000

    def inputs(self, seed):
        return {"seed": seed}

    def build(self, ulmc, inputs):
        target = ulmc.quadratic_target(self.quad_diag, np.zeros(self.quad_diag.size))
        sched = ulmc.schedule(self.eps, target.kappa, L=target.smoothness)
        return {"ulmc": ulmc, "seed": inputs["seed"], "sched": sched, "digests": {},
                "diameter": float(np.sqrt(target.dim / target.strong_convexity)),
                "out": os.path.join(inputs["out_dir"], f"convergence-{os.getpid()}.csv")}

    def argv(self, ctx):
        return ["convergence", "--quad-diag", ",".join(repr(float(v)) for v in self.quad_diag),
                "--epsilon", repr(self.eps), "--chains", str(self.chains),
                "--seed", str(ctx["seed"]), "--out", ctx["out"]]

    def run(self, ctx):
        """Returns (exit code, CSV bytes, audited gradient evaluations)."""
        ulmc = ctx["ulmc"]
        build, counters = ulmc.cli.quadratic_target, []

        def counted_target(*args, **kwargs):
            counters.append(ulmc.targets.GradientCounter(build(*args, **kwargs)))
            return counters[-1].wrapped()

        ulmc.cli.quadratic_target = counted_target
        try:
            code = ulmc.cli.main(self.argv(ctx))
        finally:
            ulmc.cli.quadratic_target = build
        with open(ctx["out"], "rb") as fh:
            return code, fh.read(), sum(c.count for c in counters)

    def check(self, ctx, out):
        code, data, grad_evals = out
        if code != 0:
            return [f"{self.name}: exit code {code}"]
        sched = ctx["sched"]
        # two per chain-step, plus the d + 2 probes by which the stationary
        # study recovers the quadratic's diagonal and centre
        expected = 2 * self.chains * sched.N + self.quad_diag.size + 2
        failures = gates.grad_evals_gate(grad_evals, expected, self.name)
        failures += gates.convergence_csv_gate(data.decode("utf-8"), self.eps, sched.h,
                                               sched.N, ctx["diameter"], self.name)
        digest = gates.digest(data)
        reference = ctx["digests"].setdefault(self.name, digest)
        return failures + gates.digest_gate(digest, reference, self.name)

    def chain_steps(self, ctx):
        return ctx["sched"].N * self.chains


WORKLOADS = {wl.name: wl for wl in (Ensemble(), Chains(), Coupled(), Logistic(), Convergence())}
BENCHMARKED = ("ensemble", "logistic", "convergence")

"""The reference evaluator: golden identity and independence.

Each digest is the sha256 of ``repr(execute_reference(spec, db))`` for
one query on a fixed tiny database.  ``repr`` spells every value with
its Python type (``3`` vs ``3.0``, quoted strings), so a digest pins the
exact rows, their order and their types, not just values within a
tolerance.  The digests were recorded with the original
dispatch-per-row evaluator; any rewrite must reproduce them bit for bit.
Float sums go through the built-in ``sum`` as on CPython 3.9-3.11;
3.12 made it compensated, which moves the float-sum digests.

The oracle is only worth something while it shares no execution code
with the engine, so its module is also checked for engine imports and
calls into vectorised ``Expression.evaluate``.
"""

import ast
import hashlib
import inspect

import numpy as np
import pytest

import repro.engine.reference as reference_module
from repro.engine import execute_reference
from repro.sql import bind
from repro.storage import ColumnType, Database
from repro.workloads import micro, ssb, tpch


def build_mixed_database():
    """Three joinable tables covering every column type, duplicate join
    keys and a join that does not touch the first FROM table."""
    rng = np.random.default_rng(2016)
    db = Database("golden")
    n = 400
    words = ["alpha", "beta", "chi", "delta", "eta", "gamma", "omega"]
    fact = db.create_table("f", nominal_rows=40_000)
    fact.add_column("k", ColumnType.INT32, rng.integers(1, 13, n))
    fact.add_column("q", ColumnType.INT64, rng.integers(-10**9, 10**9, n))
    fact.add_column("p", ColumnType.FLOAT32, rng.uniform(0, 40, n))
    fact.add_column("r", ColumnType.FLOAT64, rng.normal(50, 20, n))
    fact.add_column("d", ColumnType.DATE,
                    19940101 + 10000 * rng.integers(0, 4, n)
                    + rng.integers(0, 12, n) * 100)
    fact.add_string_column("s", [words[i] for i in rng.integers(0, 7, n)])
    dim = db.create_table("dim", nominal_rows=16)
    dim.add_column("id", ColumnType.INT32,
                   np.array([1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                             3, 7, 3, 11, 99, 5]))
    dim.add_string_column("name", [words[i % 7] for i in range(16)])
    dim.add_column("w", ColumnType.FLOAT64, rng.uniform(-1, 1, 16))
    dim.add_column("dgid", ColumnType.INT32, rng.integers(0, 4, 16))
    grp = db.create_table("g", nominal_rows=4)
    grp.add_column("gid", ColumnType.INT32, np.array([0, 1, 2, 2]))
    grp.add_string_column("gname", ["zero", "one", "two", "deux"])
    return db


MIXED_QUERIES = {
    "scan_or_limit": (
        "select k, q, p, r, d, s from f where k < 4 or s = 'beta' "
        "order by k, s limit 20"),
    "distinct_not_in": (
        "select distinct s, k from f where not (k in (1, 2, 3)) "
        "order by s desc, k"),
    "join_aggregates_having": (
        "select name, sum(p) as sp, avg(r) as ar, min(d) as mn, "
        "max(q) as mx, count(*) as n from f, dim where k = id "
        "group by name having n > 3 order by sp desc"),
    "scalar_over_nothing": (
        "select count(*) as n, sum(q) as t, avg(r) as a, min(p) as lo "
        "from f where k > 1000"),
    "groups_over_nothing": (
        "select k, count(*) as n from f where k > 1000 group by k"),
    "string_range_arith": (
        "select k, sum(q * 2 - p / 4) as e from f where s >= 'c' "
        "and s < 'g' and p between 1.5 and 30 group by k order by e"),
    "three_way_join": (
        "select gname, count(*) as n, sum(r * w) as x from f, dim, g "
        "where k = id and dgid = gid group by gname order by gname"),
    "date_between": (
        "select k, d from f where s <> 'zzz' "
        "and d between 19950101 and 19961231 limit 7"),
    "arith_output": (
        "select s, k * 3 + q as v, r / 2 as h from f where r > 50.0"),
    "having_or_not": (
        "select k, count(*) as n, sum(p) as sp from f group by k "
        "having not (n in (30, 31, 32)) or sp < 10.0 order by n desc, k"),
    "star": "select * from dim",
    "string_order": (
        "select s, count(*) as n from f group by s order by s desc limit 4"),
}

GOLDEN = {
    "ssb": {
        "Q1.1":
            "f85360e7b6d199eb89410b9181d93bd80300eb859760966d945b389896aff0ca",
        "Q1.2":
            "d9744bfdc802aceee14235ab6c6860ab81fa15a6c7dd2f766b73820829dd0fc8",
        "Q1.3":
            "78fce9491f4b0e3b895728f3c6efe71e16e4ae77f5f6db9148e6e0584bc5fd42",
        "Q2.1":
            "e33aa77e7f6ea90101f37d543820e4133e8d4e14be5b823c8ae1ffaacdfe3992",
        "Q2.2":
            "001db1b46ffd3053ddf89245796142ea2191668af4844324f5def585d73dc823",
        "Q2.3":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "Q3.1":
            "af7dd4667faafd545d632b1a0e48e15a3b21efc86e0612a345ab316bde9740b4",
        "Q3.2":
            "58620bba132a8e8937d5e1077aa6dae7d400f37ed6c28fc97fe1439ae1c1f5d4",
        "Q3.3":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "Q3.4":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "Q4.1":
            "38ffe8a181f642e6feed85d1a991fdd83a5ac8db74cac471790cdbb9bb6a5cab",
        "Q4.2":
            "a984297d0892a093c9f4552ffdd207d6842d581f2cfff5226a790aeba5cbdc72",
        "Q4.3":
            "7e5f50f616fb546e7594b4124a71935169eef928de0ea91efa0e1ab34c400ef4",
    },
    "tpch": {
        "Q2":
            "17200ed03131d3c355770fa73e25f9d8ff49bec359bc36e65fc7eeeb0170e84f",
        "Q3":
            "6c80ad82ec3cba8ff2c4b11263287503187d590d9d85b741650b0d67d94d3891",
        "Q4":
            "73093cc714aef9d72c920818b5d7d86938851a443daa14c87cf42a32143f5a30",
        "Q5":
            "71455cc7bf6603a97be1d4eac2d9e08fb285723efd323d4b1d862551395d1ecb",
        "Q6":
            "d93b50bffe7af47bb9556b84cb26f9db552ed6124683b5cce65f7f71c8eaa9cc",
        "Q7":
            "0964c79d3e111a98575df2f951db0b442c9faafcc7de75488ec7bd220b9d9325",
    },
    "micro": {
        "S1":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "S2":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "S3":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "S4":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "S5":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "S6":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "S7":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "S8":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    },
    "mixed": {
        "scan_or_limit":
            "78fbb797ed0c36c2bad9500d16b8904bbc5d53638e3e7948be10764b986d525c",
        "distinct_not_in":
            "55a014e531b123e44b497bf9cd1db1ae3969c94de66861141306298e5dccbc25",
        "join_aggregates_having":
            "755774dad2aadddc08e4f7c99f9559c45b3f6d04571beb591624c3503f34e301",
        "scalar_over_nothing":
            "a89e6262e3e07dc7b1e877c4abec3ca5db7351a951d1f0b65a7e2b5d36799c91",
        "groups_over_nothing":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "string_range_arith":
            "7d5bccb0985593271cd693675b5d75187c916211999a0af3ce82d9dba1207b4a",
        "three_way_join":
            "e8cc7f091b67dee6589ed51f7efd98fab8327898cdbd0b94791efdd4e9b18445",
        "date_between":
            "d7c486747c68918dee744e522e142b73c5e6a2a147dbb11730b637a921e260da",
        "arith_output":
            "412f61ac9dbaa3769b0753065a2a7144f17834dce901791b2116f373df7ce60b",
        "having_or_not":
            "89db193c7ed96418612c30a4fe30d0a19acb4aa21f381747c39bc101c51072b0",
        "star":
            "201776a872ed4ad98e8d9f8a1c12a733478d4ce7b0981114c05e9224368c39ab",
        "string_order":
            "2627868d65b217e4be997fde07aa6e4545e17dadddb52fbc83d60d8d8fadbfba",
    },
}


def _ssb():
    return ssb.generate(scale_factor=0.01, data_scale=0.01, seed=123)


#: family -> (database builder, queries)
FAMILIES = {
    "ssb": (_ssb, ssb.QUERIES),
    "tpch": (lambda: tpch.generate(scale_factor=0.01, data_scale=0.01,
                                   seed=321), tpch.QUERIES),
    "micro": (_ssb, micro.SERIAL_SELECTION_QUERIES),
    "mixed": (build_mixed_database, MIXED_QUERIES),
}


def digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.fixture(scope="module")
def databases():
    return {family: build() for family, (build, _) in FAMILIES.items()}


def test_every_query_has_a_digest():
    for family, (_, queries) in FAMILIES.items():
        assert set(GOLDEN[family]) == set(queries), family


@pytest.mark.parametrize(
    "family,name",
    [(family, name) for family, (_, queries) in FAMILIES.items()
     for name in queries],
)
def test_reference_reproduces_golden_rows(databases, family, name):
    database = databases[family]
    spec = bind(FAMILIES[family][1][name], database, name=name)
    assert digest(execute_reference(spec, database)) == GOLDEN[family][name]


#: engine modules holding execution code the oracle must not reuse
ENGINE_EXECUTION_MODULES = (
    "operators", "kernels", "morsel", "frame", "execution", "plan_cache")


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in the reference module"
            yield node.module
            for alias in node.names:
                yield "{}.{}".format(node.module, alias.name)


def test_reference_shares_no_engine_execution_code():
    tree = ast.parse(inspect.getsource(reference_module))
    for module in _imported_modules(tree):
        for name in ENGINE_EXECUTION_MODULES:
            forbidden = "repro.engine." + name
            assert not (module == forbidden
                        or module.startswith(forbidden + ".")), module
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "evaluate"
    ]
    assert not calls, "reference evaluator calls .evaluate()"

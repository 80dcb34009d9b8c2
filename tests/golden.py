"""The pinned CLI outputs: each command once, with the SHA-256 of its stdout.

Every command exits 0 with empty stderr.  A ``{name}`` in a command is the
path of a file holding the psi table ``TABLES[name]``; ``argv`` fills it in.
Two runners read this table, and adding a pinned output is one line here:

- ``tests/test_cli.py::test_pinned_stdout`` runs every command in process;
- ``python tests/cold_cli.py BIN`` runs every command against an installed
  ``orbigenus`` executable BIN, as a cold process.

Standard library only, so the cold runner needs nothing but Python.
"""
from pathlib import Path

TABLES = {
    # h = 1: one psi per orbit size 1..6, with denominators 1, 2, 3, 4 and 6
    "table": """\
[{"orbit": {"h": 1, "hnf": [[1]]}, "psi": "1/2"},
 {"orbit": {"h": 1, "hnf": [[2]]}, "psi": "-3"},
 {"orbit": {"h": 1, "hnf": [[3]]}, "psi": "2/3"},
 {"orbit": {"h": 1, "hnf": [[4]]}, "psi": "5"},
 {"orbit": {"h": 1, "hnf": [[5]]}, "psi": "-1/4"},
 {"orbit": {"h": 1, "hnf": [[6]]}, "psi": "7/6"}]
""",
    # h = 2: the three orbits of size 2 carry three denominators, so T_2 = 29/24
    "table2": """\
[{"orbit": {"h": 2, "hnf": [[1, 0], [0, 1]]}, "psi": "1/2"},
 {"orbit": {"h": 2, "hnf": [[1, 0], [0, 2]]}, "psi": "2/3"},
 {"orbit": {"h": 2, "hnf": [[1, 1], [0, 2]]}, "psi": "-5/4"},
 {"orbit": {"h": 2, "hnf": [[2, 0], [0, 1]]}, "psi": "3"}]
""",
}

# recorded while enumerations still sorted their output; the genus todd,
# lambda and sigma digests were recorded while those commands still summed
# over conjugacy classes
GOLDEN = {
    "orbits --h 3 --size 12":
        "ff7b4f52eb4b06253a3341b11014af2877941657166b24ab5a2ce23625090809",
    "classes --h 2 --p 2 --l 8 --format json":
        "0df908805d4a186c378dc37831b11dec0d9532a1d9fa75c824dbe16c642b9391",
    "classes --h 1 --l 12 --format tsv":
        "2613cb2368b712345d8a97e6e8c9a9e2b8677fe57cc38a29ecaf96ee0b1313be",
    "verify dmvv --h 2 --p 2 --n 8":
        "4cc677372398fe92368a13851bf90f96d08b3d2b0f8e2e7be66454d4897065d9",
    "verify dmvv --h 2 --n 7":
        "240b74bdbb9437b14d44b4dda81413ab6b04b587a580cfb43118118b1bc53b98",
    "genus sigma --h 2 --n 6 --format tsv":
        "e9b3aa8b5cb9e7f7039fe8a978f7d91123d433a89066b9a1e9fd2984bbac4f2a",
    "genus todd --d 3 --n 28":
        "0f10cfe813097a003ba9150b0329c7e827fdc1968f3933d1a05a6512a791a926",
    "genus lambda --h 2 --p 2 --n 8":
        "ad03d55d10776c8c3c193e582f18bdf4aa7228591e71c8fa2394cba8c1c04e14",
    "genus sigma --h 3 --p 2 --n 6 --model integer:2 --format tsv":
        "081e2f9b78ca0017c9fc7a213bd80ca0c1d8c95283558632e62aab7becfa136d",
    "genus sigma --h 2 --p 3 --n 9 --format tsv":
        "1a1db0acc172b7035a239c32928e18172841f8e979755c0c2cdb88ad2cfa2061",
    # recorded while genus hecke and classes summed on their own,
    # inner_product had its own loop, and verify frobenius induced every
    # instance twice
    "genus hecke --h 3 --n 8 --model integer:1 --format tsv":
        "1db0e67c31296c2748572fd92e3c90a3f2d7a78651fc299d42adeea4875cf4cb",
    "genus hecke --h 2 --p 2 --n 8":
        "1412d1d16974d20d4c71230ecc74cb56e50a8cbb42ff00911e585c22ef3905bf",
    "verify frobenius --h 2 --p 2 --l 6 --trials 2 --seed 3":
        "5e4f688ce92f093dd600c1a27f9caca73548087fe12bf7019ad8fdd2630a27d1",
    "inner-product --h 2 --p 3 --l 6":
        "82edc602f48edf6d0d047a1d839872802a8df5a44c117b589d8b13bd2c7f94c0",
    # recorded while every enumerated orbit was built position by position
    # and re-validated by the public constructor
    "genus hecke --h 4 --n 10 --model integer:1 --format tsv":
        "c35c699828bd0c6c82a353495e72ba8ee17a4def4cf84f78a627e734a4bfefb4",
    "orbits --h 4 --p 2 --size 8 --format tsv":
        "05ef9e8d8f47547d5416c267b43ce67f619f2aa98e6d989ccbc3da512463b6c0",
    # recorded while PsiPolynomial and TruncatedSeries each had their own
    # square-and-multiply and canonicalize reduced its columns on its own:
    # multiplicities up to 10, a series power 5 = 0b101, and a brute-force
    # side that canonicalizes every stabilizer
    "verify dmvv --h 1 --n 10":
        "a5267ccf73e02d1fb5e513474c3c110d19b3ca2cec433ed54cb83fa3f565b229",
    "genus todd --d 5 --n 12 --format tsv":
        "891bdc572f3dc62b2a72acb2e888ce01e25084bca5aa6ad132b3f943d53e7669",
    "verify oracle --h 3 --l 4":
        "67b9ea1a65ea3c83d1b9b87d52b76e29a76b0e69e7ad146700b2371d3c40fead",
    # recorded while sigma enumerated the classes of each degree on its own
    # and every report was built as one dict tree, then one string: a
    # Fraction left side, a root-only class walk, streamed orbit and class
    # lists, and an empty "type": [] list
    "verify dmvv --h 3 --p 2 --n 8 --model integer:1":
        "68655cb10cf9843ac63d1e8b2116f34c02aaabdd4d9158295ccd05f4ee69b6d3",
    "verify dmvv --h 2 --p 3 --n 9":
        "d6c76ae316ed15d9d1b1541fd650cbfe4d1b75835af96edaee04bb7c59c574cb",
    "verify dmvv --h 1 --n 0":
        "cf7d19073da3312a2db1f21bc765256f32bd2e0b3bcbc9388446d178c59dfa42",
    "orbits --h 2 --size 6":
        "cf970030de145882354918b79eb750c8de9cef513f051ee7c6c8088458a0f62c",
    "classes --h 2 --l 0 --format json":
        "d61d1d8be87de39c4491365c2101dc09967b5509e1d1d1973dad1ceefa0ee050",
    "classes --h 1 --p 3 --l 6 --format json":
        "27db87d4ae1b3242afc9f0a9b7368d7b1a60bce849b2042ef2ae763abb521f97",
    # recorded while both sigma routes carried each term as an (x, d) pair:
    # the integer class walk at h = 3 and the integer orbit product
    "verify dmvv --h 3 --p 2 --n 10 --model integer:1":
        "1c37126911a052fe4bcf121b8fd1bcf5c35a1ea8be04aa39e529f1fdefdd6489",
    "genus lambda --h 3 --n 12 --model integer:3 --format tsv":
        "3bf385f7d97f79ba59bce3eb0a57e26c38865999735bdbe93016259425ee3e3a",
    # recorded while each value ring wrote its own reflected operators:
    # symbolic all-orders lambda drives them on polynomials through negate_t, unary minus and exp
    "genus lambda --h 2 --n 6":
        "480802ca44b1f58c92c631e7c44d6de160b6ea394f04a8318bc53ef80d5f428a",
    # first pinned against the installed CLI only: the four bench/run.py
    # workloads at full and --smoke size ...
    "verify dmvv --h 2 --p 2 --n 12":
        "6ea40d7663c509b59febce193f48a33fb7e4dec1c6b3b8bb7229a858397b3379",
    "verify dmvv --h 2 --p 2 --n 4":
        "5a14a42e7e5550d02f758e6a19c872cd210f6a879b17d4a8601a7a64d5bdc04c",
    "genus todd --d 3 --n 6":
        "469ff45a3c572c86cb1c30b3bf4b5abf77cc4f56de822582051c880ee51166da",
    "verify frobenius --h 2 --p 2 --l 10 --trials 3":
        "571b5b991e645933bafc56429ef2002a669f1c687091550b9d8522114f04cf8d",
    "verify frobenius --h 2 --p 2 --l 4 --trials 2":
        "9e3c5a1a95a862adcefff833c3d58a3e0516480eb6bb471ef119bd7b0f1e722d",
    "genus hecke --h 4 --n 18 --model integer:1":
        "edc18442e9417c15eb5f055caa6c7791d0cff2e9f38d845d1a3ff593627e75bc",
    "genus hecke --h 4 --n 4 --model integer:1":
        "d417db2ad394302f04a2ffd8cb8fb48f983b967ed2958a9402f7bcc48f4a0b36",
    # ... Young induction in every mode and at h = 3, the brute-force oracle
    # in 2-power mode, and a symbolic sigma and an integer Hecke series in
    # 2-power mode
    "verify frobenius --h 2 --l 7 --trials 2":
        "b3ba3a9b3a7293eda1bb506c3f721c0252a740ef5f4e417babdcae51e76cc5fd",
    "verify frobenius --h 3 --p 2 --l 6 --trials 1":
        "d3049320f72ffd33323f2abe94757d25c4962ea63eb4045aaba7b7b2ba678cba",
    "verify frobenius --h 2 --p 3 --l 8":
        "c4cb9e445489153045e3043410e2e04f6defeadd52c4858af028719da1f1474b",
    "inner-product --h 3 --l 5":
        "eedb85ab90d324a555a45560d75c88cecf23721990c3b6353697d707e6465c74",
    "verify oracle --h 2 --p 2 --l 6":
        "d2470cddff5033e4bec91e64162d7f25b9091af38dbf7304c484c7714a8cc5a6",
    "genus sigma --h 2 --p 2 --n 6":
        "2a0be52050ed73bc79f1ea2d2aa2f150ee7c7448f602e95d3aeac4003af94985",
    "genus hecke --h 3 --p 2 --n 16 --model integer:1":
        "5c210b1934a60b90afd097545cfb8fe3fb712000bc483e6e4cd64c1afa5ef973",
    # psi tables: exact rational psi through the class walk, the orbit
    # product and its inverse, and hecke_operator's sum over denominators
    "verify dmvv --h 1 --n 6 --model table:{table}":
        "42383e3b174886335239b42821b1ba35805187bbd1785cdce6e6fad401a07b95",
    "genus lambda --h 1 --n 6 --model table:{table}":
        "7e75101309073716096c40cf720bdae951a14159062b333641eda807d1bfa631",
    "genus hecke --h 1 --n 6 --model table:{table}":
        "e533d5eee5f7b11876f1ec02376b2f181ce61a0424c7eaa289df7e895e7f1372",
    "genus hecke --h 2 --n 2 --model table:{table2}":
        "6dd26c951b7a000084192d0a5aa24cbae25a5d738e99e42933f171042788dad9",
    "verify dmvv --h 2 --n 2 --model table:{table2}":
        "f3fdfd947fba238e5caa96a24a9b669192036f14b3546305f5b2a320001a0116",
    # recorded while the genus series were a product over orbit types:
    # table2's mixed denominators through sigma and lambda, and a deep
    # h = 4 pool
    "genus sigma --h 2 --n 2 --model table:{table2} --format tsv":
        "9cdeff0bab65d00c7a8135f2841b9dc317087dea7d21316f356cae201ffb50f3",
    "genus lambda --h 2 --n 2 --model table:{table2}":
        "bde1f6c1801d9d0ffc9d1cb947319d4c577280df09619fd7e77ee705c59bd2d3",
    "genus sigma --h 4 --n 12 --model integer:1 --format tsv":
        "a3a5ef69d086812846659a5012307193545a2dbd0b6b0dc4aa145f020abb40e0",
    # recorded while the writer took each orbit as a dict from orbit_to_json:
    # all-orders class lists at h = 2 and h = 3
    "classes --h 2 --l 8 --format json":
        "a7865af7c0c0bd0438d52ecf49023b90d9a2b9c82cfeee13740422157ca181a7",
    "classes --h 3 --l 5 --format json":
        "c1816b2e9d3aa4095482fb10f028d6bd0915059b52f150640d98534f5a053d30",
    "classes --h 2 --l 8 --format tsv":
        "b4027b2c78d316d5e391158e30f87efe0b00b6ed96dd695f40d76a9702c3a39d",
}


def write_tables(directory) -> dict:
    """Write each psi table to ``name.json`` in directory; return name -> path, for argv."""
    paths = {}
    for name, text in TABLES.items():
        path = paths[name] = Path(directory) / f"{name}.json"
        path.write_text(text)
    return paths


def argv(command: str, paths: dict) -> list:
    """The arguments of a pinned command, each ``{name}`` replaced by the path of that table."""
    return [arg.format(**paths) for arg in command.split()]

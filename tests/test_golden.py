"""CLI output on the demo theories, byte for byte against committed goldens.

The files under ``tests/golden/`` are ``coevents <verb> <theory> --format
<fmt>`` outputs; ``.json`` holds the machine format and ``.txt`` the text
format.  A golden named ``<verb>_<theory>`` runs the verb with its default
flags.  One named ``<verb>-<case>_<theory>`` runs it with the flags that
``FLAGS`` lists for ``<verb>-<case>``.  Larger outputs are pinned by
exit code, byte count and sha256 (``PINNED``), on the theory files under
``tests/golden/theories/``, and so are the ``validate`` and ``orders``
outputs on the catalog corpus written there (``CORPUS_PINNED``) and the
brute-force ``coevents --set all --cap 4`` on ``four_slit_decoherence``
(``BRUTE_FORCE_PINNED``).
``report`` is kept only for the two small theories; on
``four_slit_decoherence`` its machine form is about 126 KB.  A change
that means to alter the output regenerates a golden with, for example,

    PYTHONPATH=src python -m coevents validate demos/theories/three_slit.json \\
        --format machine > tests/golden/validate_three_slit.json
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from coevents import catalog, theoryfile
from coevents.cli import run

ROOT = Path(__file__).resolve().parent
THEORIES = ROOT.parent / "demos" / "theories"
GOLDENS = sorted(path for path in (ROOT / "golden").iterdir() if path.is_file())
FORMATS = {".json": "machine", ".txt": "text"}

FLAGS = {
    "tau-event": ["--event", "1,2"],
    "complete-boolean": ["--mode", "boolean"],
    "audit-single": ["--context", "1,2,3", "--event", "1,2", "--event-b", "3"],
    "topos-single": ["--context", "1,2", "--event", "1,2,3"],
    "topos-scheme": ["--set", "scheme"],
    "topos-cap15": ["--cap", "15"],
    "orders-all": ["--set", "all"],
    "orders-scheme": ["--set", "scheme"],
    "orders-classical": ["--set", "classical"],
    "coevents-scheme": ["--set", "scheme"],
    "coevents-all": ["--set", "all"],
    "coevents-classical": ["--set", "classical"],
    "audit-empty": ["--include-empty-dual"],
    "report-witnesses": ["--witnesses", "5"],
}


@pytest.mark.parametrize("golden", GOLDENS, ids=lambda p: p.name)
def test_cli_output_matches_golden(capsys, golden):
    case, theory = golden.stem.split("_", 1)
    verb = case.split("-", 1)[0]
    flags = FLAGS[case] if "-" in case else []
    rc = run(
        [verb, str(THEORIES / f"{theory}.json"), "--format", FORMATS[golden.suffix], *flags]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out.encode("utf-8") == golden.read_bytes()


#: ``coevents <verb> amplitudes_12.json <flags> --format <fmt>``: exit code,
#: stdout bytes and sha256, for the n = 12 amplitude theory (1, 1, -1, ...
#: on a..l), where a dual space holds 4,095 members.
PINNED = {
    ("coevents", "machine"): (
        0, 876131, "3a923f275fd03e002bcac45b9c3f3d0beec949e7e4f908c17be9b5f52d00a2e6"
    ),
    ("coevents --set scheme", "machine"): (
        0, 126187, "5b32fdc27a54d07ea562eb4cd758f433bb2feca6f4169024df930786511723a3"
    ),
    ("tau --event a", "machine"): (
        0, 115991, "f03fca9f19c679881417fca50d75ef9ba43af155ada3cd14d94ebf335c85ceda"
    ),
    ("orders", "machine"): (
        0, 186125, "c04ddde6d23f16b606c0f2b95c130b090bf37840a950ef4ba6d7ebbab3895ef0"
    ),
    ("complete --set classical --mode boolean", "machine"): (
        0, 157653, "d183448b4f6f3b5cc31d42ebc6cb1513f21183f88000b10d751ee8a3fbea75fd"
    ),
    ("topos --cap 12 --context a,b --event a", "machine"): (
        0, 222789, "43dd4a127d86f09d1ecc5728022c357b7d054d2a39207eab4fae51a9e4edae11"
    ),
    ("coevents", "text"): (
        0, 600330, "3d30ab0343daba6d1bb3f7ffcd1b0966f32d585a2200f673abd98e09585f74a5"
    ),
    ("coevents --set scheme", "text"): (
        0, 85799, "925ba5c946f499c513fe17e964a458747dc551b3bd3d1c3cbd5b60f3a6ffef39"
    ),
    ("tau --event a", "text"): (
        0, 78779, "6949e1f6980823cce771c007eaff2f626b679ff231ccd470581808b6b8cc6f07"
    ),
    ("orders", "text"): (
        0, 122881, "c1ea2c1c785141dd02d97343e3f51fba22db486e688f1a088dcfb0badf5ad200"
    ),
    ("complete --set classical --mode boolean", "text"): (
        0, 115422, "3ea4ea5b0a62b0a86fe28a53b38626752986f7cb899dc7a61eb32270d296cd57"
    ),
    ("topos --cap 12 --context a,b --event a", "text"): (
        0, 164998, "45b5e925f591bc4a25407fbf22343c66e7466835eaaa80cc490b6af5f4725c59"
    ),
}


@pytest.mark.parametrize("case", PINNED, ids=lambda case: f"{case[1]}:{case[0]}")
def test_cli_output_at_n12_matches_its_pinned_hash(capsys, case):
    command, fmt = case
    verb, *flags = command.split()
    theory = ROOT / "golden" / "theories" / "amplitudes_12.json"
    rc = run([verb, str(theory), "--format", fmt, *flags])
    out = capsys.readouterr().out.encode("utf-8")
    assert (rc, len(out), hashlib.sha256(out).hexdigest()) == PINNED[case]


#: ``coevents four_slit_decoherence.json --set all --cap 4 --format <fmt>``:
#: exit code, stdout bytes and sha256.  The brute-force space at n = 4 holds
#: 65,536 members, 65,520 of them held as support bits, not as duals.
BRUTE_FORCE_PINNED = {
    "machine": (
        0, 15101892, "94c03dc504eb1fa49b3e7f7ed5f513e1728ba38f0ce4306f08c3f447b492a4d0"
    ),
    "text": (
        0, 10981288, "530719d4440b7bb6a06dbaaf8836c226b55ca17c14028425bcdc2c2cc938dd1e"
    ),
}


@pytest.mark.parametrize("fmt", BRUTE_FORCE_PINNED)
def test_brute_force_coevents_at_n4_match_their_pinned_hash(capsys, fmt):
    theory = THEORIES / "four_slit_decoherence.json"
    rc = run(["coevents", str(theory), "--set", "all", "--cap", "4", "--format", fmt])
    out = capsys.readouterr().out.encode("utf-8")
    assert (rc, len(out), hashlib.sha256(out).hexdigest()) == BRUTE_FORCE_PINNED[fmt]


#: ``coevents <verb> <theory>.json <flags> --format <fmt>``: exit code, stdout
#: bytes and sha256, for the seven ``catalog.corpus()`` theories written as
#: files under ``tests/golden/theories/``.  ``orders --set all`` runs on the
#: theories of at most three histories.
CORPUS_PINNED = {
    ("fair_coin", "validate", "machine"): (
        0, 573, "a3b6033237670afbf63a05b259b0cd1ddab6e9a3805c30c9a82bf650ad785010"
    ),
    ("fair_coin", "validate", "text"): (
        0, 254, "1343a0687da71ec51a040ac78d90db6efe0cd7b753eabde04a9774585fdbded5"
    ),
    ("fair_coin", "orders", "machine"): (
        0, 766, "2c4db7cada78c91fcd1067eb53f9e59da1d089f69b8a8a54e321d1e71712ea43"
    ),
    ("fair_coin", "orders", "text"): (
        0, 422, "967101fe5405445210d1a6651c367006e6c213e3945626ca58042747d34af788"
    ),
    ("fair_coin", "validate --witnesses 1", "machine"): (
        0, 573, "a3b6033237670afbf63a05b259b0cd1ddab6e9a3805c30c9a82bf650ad785010"
    ),
    ("fair_coin", "validate --witnesses 1", "text"): (
        0, 254, "1343a0687da71ec51a040ac78d90db6efe0cd7b753eabde04a9774585fdbded5"
    ),
    ("fair_coin", "orders --witnesses 1", "machine"): (
        0, 766, "2c4db7cada78c91fcd1067eb53f9e59da1d089f69b8a8a54e321d1e71712ea43"
    ),
    ("fair_coin", "orders --witnesses 1", "text"): (
        0, 422, "967101fe5405445210d1a6651c367006e6c213e3945626ca58042747d34af788"
    ),
    ("fair_coin", "orders --set all", "machine"): (
        0, 2205, "c9744c29eb4d977ec22f5a06ba2344f38ba561181fb5b4a960863b0f41540f5a"
    ),
    ("fair_coin", "orders --set all", "text"): (
        0, 1224, "dd7e5418e403341977671110cf2711c13b0b4c642d0d88865c21fe1c783e1d58"
    ),
    ("three_slit", "validate", "machine"): (
        0, 1466, "f151472d3f1858b6e80e61d6717d04e687b574b5a3fcb523945fd7a7aaa05ecb"
    ),
    ("three_slit", "validate", "text"): (
        0, 771, "bb0c7ec79b14fd90a19f890ce77a586782a2b81cdf348b10b7d2c90ca7990f9d"
    ),
    ("three_slit", "orders", "machine"): (
        0, 1365, "e1c5939dbc418a96082535784932a2d3d4b31841d2ba0d5ef253070282438351"
    ),
    ("three_slit", "orders", "text"): (
        0, 768, "5989f942b3529f561417e8dda81aa8bcad41886b15b8c0996e4353129c90d110"
    ),
    ("three_slit", "validate --witnesses 1", "machine"): (
        0, 929, "e8600eb8e3e2659a397e6782b43984d3aa5bb1c5557b148a8fe05d0f98d9323a"
    ),
    ("three_slit", "validate --witnesses 1", "text"): (
        0, 451, "b357ccc711f23d16f23d17278802e523637d5fcd8584ba74979f9f2cc12d1f62"
    ),
    ("three_slit", "orders --witnesses 1", "machine"): (
        0, 881, "4494588005b7bf3bfe0fb4b191d12e7f298f7d26f8e365ae5e864bba2572b065"
    ),
    ("three_slit", "orders --witnesses 1", "text"): (
        0, 484, "59d667451078cdafdd1aa40e02a4c51c71028ee20225855ab206faa5845b3c40"
    ),
    ("three_slit", "orders --set all", "machine"): (
        0, 6958, "d6513f067af99e5430441076e76105e898d6caa20b55f7655c1babf2087b02e3"
    ),
    ("three_slit", "orders --set all", "text"): (
        0, 4060, "794f8cbd1bd13b1ea79c4336c036b7fc5501b1999646b9c8d07cf42f22a26382"
    ),
    ("two_coin", "validate", "machine"): (
        0, 903, "006cccbe3fb022d3da4e9f488f0a468f985bec2425b36e4d8e71df4870fd1ca2"
    ),
    ("two_coin", "validate", "text"): (
        0, 458, "f4c8bd8dd135c7aabe6eadefd8ec0869f309822ea518a37572274b23bb682456"
    ),
    ("two_coin", "orders", "machine"): (
        0, 4884, "579f39cb34179d060bf891233bef2510f6e95a0bfbc7ac926b05454e6a97c443"
    ),
    ("two_coin", "orders", "text"): (
        0, 3010, "46793be95d7173c9f331de36a9f8cfbecb9cf09aaeaa29dc0a071a4d35214904"
    ),
    ("two_coin", "validate --witnesses 1", "machine"): (
        0, 903, "006cccbe3fb022d3da4e9f488f0a468f985bec2425b36e4d8e71df4870fd1ca2"
    ),
    ("two_coin", "validate --witnesses 1", "text"): (
        0, 458, "f4c8bd8dd135c7aabe6eadefd8ec0869f309822ea518a37572274b23bb682456"
    ),
    ("two_coin", "orders --witnesses 1", "machine"): (
        0, 1128, "7c7191ad777a8d30f6f27e10e1dade9d33021e63b4641d03d4248449b0921363"
    ),
    ("two_coin", "orders --witnesses 1", "text"): (
        0, 650, "423764a1b80baabc57414f38bfd73ad96f51a28a9280204d7402fb9d1d60b1e0"
    ),
    ("dirac_three", "validate", "machine"): (
        0, 707, "0c4ee0a3428cb0d1399bfeceeca69b0f6115a8ab0fa351fa30f01eba89480a00"
    ),
    ("dirac_three", "validate", "text"): (
        0, 328, "e9c6dd3d4a4ea25b0d3085e97e667288c2e66e9e8dfc440b62db3add13692676"
    ),
    ("dirac_three", "orders", "machine"): (
        0, 1367, "95bed4663653a53f8619240b84aceca8e4d83333204c19baa6d0b9863a59eb8f"
    ),
    ("dirac_three", "orders", "text"): (
        0, 770, "7b8e8dc5e2a85088e39816e81086a35e8942a988419f33988d2569d80653c7a2"
    ),
    ("dirac_three", "validate --witnesses 1", "machine"): (
        0, 707, "0c4ee0a3428cb0d1399bfeceeca69b0f6115a8ab0fa351fa30f01eba89480a00"
    ),
    ("dirac_three", "validate --witnesses 1", "text"): (
        0, 328, "e9c6dd3d4a4ea25b0d3085e97e667288c2e66e9e8dfc440b62db3add13692676"
    ),
    ("dirac_three", "orders --witnesses 1", "machine"): (
        0, 883, "3b1880fc95cdb7882d0ff139657d775b3c81706a5ec1679adedecb6a195f297b"
    ),
    ("dirac_three", "orders --witnesses 1", "text"): (
        0, 486, "17178863faaf2861ed92bef5a06bade73f76be4cc31861fc490595ad512f9c7b"
    ),
    ("dirac_three", "orders --set all", "machine"): (
        0, 6960, "232ec7663fd151e4dff6bc9721628da9bde4131894a9cbb85b85f83a4f2a3819"
    ),
    ("dirac_three", "orders --set all", "text"): (
        0, 4062, "40da5eaba69908faa5589f52b76091deed5f90adfcc0c7fb18c6da7595423900"
    ),
    ("uniform_one", "validate", "machine"): (
        0, 526, "7bc6e6bb5cc324703d6e3b94be736e62aad491a4198d6be38d4fd3718f56e411"
    ),
    ("uniform_one", "validate", "text"): (
        0, 234, "4c584a48a7742422ae82faf0b9a105b79446ae2350acf364f133ebd083e0c7bb"
    ),
    ("uniform_one", "orders", "machine"): (
        0, 648, "d9f528c067fdd71adc24d02c77b22e7e6c77e0994d3b7b987b93698ae5d42e8f"
    ),
    ("uniform_one", "orders", "text"): (
        0, 380, "0c878c74b3ce0e7ff0db2233db6a56edd985298facc042b16abfdecf8bea42eb"
    ),
    ("uniform_one", "validate --witnesses 1", "machine"): (
        0, 526, "7bc6e6bb5cc324703d6e3b94be736e62aad491a4198d6be38d4fd3718f56e411"
    ),
    ("uniform_one", "validate --witnesses 1", "text"): (
        0, 234, "4c584a48a7742422ae82faf0b9a105b79446ae2350acf364f133ebd083e0c7bb"
    ),
    ("uniform_one", "orders --witnesses 1", "machine"): (
        0, 648, "d9f528c067fdd71adc24d02c77b22e7e6c77e0994d3b7b987b93698ae5d42e8f"
    ),
    ("uniform_one", "orders --witnesses 1", "text"): (
        0, 380, "0c878c74b3ce0e7ff0db2233db6a56edd985298facc042b16abfdecf8bea42eb"
    ),
    ("uniform_one", "orders --set all", "machine"): (
        0, 1038, "d70abd04dcd34a3f07665071598bddb3094a77fbb90015bfdb4d54806ecd8c94"
    ),
    ("uniform_one", "orders --set all", "text"): (
        0, 552, "8d8cf4be4d31c9e219fb9d1db2ca192f413cc1b674d3f21f6a2ff0ee185e081f"
    ),
    ("four_slit", "validate", "machine"): (
        0, 4040, "a86fe2e2f0a0c6fd3469ca4f3e09f67f7424d2a04e80231dd874f0b7626b36b1"
    ),
    ("four_slit", "validate", "text"): (
        0, 2359, "8306a3ad5aa24f87555f073e3a0bed7ffa8b2086e17830f676f9164e3c179284"
    ),
    ("four_slit", "orders", "machine"): (
        0, 4614, "67fdb916fdfd10bb217a47dea9761d4e0a2ba6d77e811a629013fc69014ca234"
    ),
    ("four_slit", "orders", "text"): (
        0, 2740, "2656e45a242e4cea6eb681326059edc0e3cb1c10cf75a87dd819cd4ae5ca9952"
    ),
    ("four_slit", "validate --witnesses 1", "machine"): (
        0, 1143, "cacacea6d7028a9369317053c944a39b13036e3bb229554a9438a4d5cece74c7"
    ),
    ("four_slit", "validate --witnesses 1", "text"): (
        0, 579, "b946cc41cc80b063a1ff079069a0e46e6f79e20a76ba7b8356fd6bb8cd508838"
    ),
    ("four_slit", "orders --witnesses 1", "machine"): (
        0, 1076, "f4759fcb942151996e235f1f42a7ff38a467473e42997eaae06b4ef9e859e5db"
    ),
    ("four_slit", "orders --witnesses 1", "text"): (
        0, 598, "0a6eb89432017f33ab7f7e2799b8cda9ff31240d5502aa6da47168084efa7476"
    ),
    ("complex_phases", "validate", "machine"): (
        0, 3637, "b9e0747c20a1ec0c8ad88b1fbaa5627b284fa0223567ef457c50c613b89ee5d5"
    ),
    ("complex_phases", "validate", "text"): (
        0, 2114, "608c1ca55d75be4042680ffe6d17d28ec80438349644bb40d8e891a2b5151a9f"
    ),
    ("complex_phases", "orders", "machine"): (
        0, 4622, "959c93ee7e98ef6f821b9f60a32983a796e53120eeebb8864e8816995dfd5943"
    ),
    ("complex_phases", "orders", "text"): (
        0, 2748, "1bd8610737c2b656e182416e12b0fc762b49f9e4489fbb0142b7951d8127ef60"
    ),
    ("complex_phases", "validate --witnesses 1", "machine"): (
        0, 1118, "2bf6ec9e89da3b444561123c7dde8181c5645a27258d0d2d598648994ea2cbad"
    ),
    ("complex_phases", "validate --witnesses 1", "text"): (
        0, 562, "0ff805e692713b09fe31fab8b14cbb11047467f07aa26b3033aefee47e075368"
    ),
    ("complex_phases", "orders --witnesses 1", "machine"): (
        0, 1084, "d148ca19d85904b9aed36399022164ac6cb6f1e8eeaa3b6146b066e031d65c6a"
    ),
    ("complex_phases", "orders --witnesses 1", "text"): (
        0, 606, "e5587a1678ecf5e92e4d37eecbd34301b2c1ab6a49fa2fdd05c4b113b4445edb"
    ),
}


@pytest.mark.parametrize("name", catalog.corpus())
def test_corpus_theory_files_load_the_catalog_measures(name):
    theory = theoryfile.load(ROOT / "golden" / "theories" / f"{name}.json")
    assert theory.measure == catalog.corpus()[name]


@pytest.mark.parametrize("case", CORPUS_PINNED, ids=lambda case: ":".join(case))
def test_cli_output_on_the_corpus_matches_its_pinned_hash(capsys, case):
    name, command, fmt = case
    verb, *flags = command.split()
    rc = run([verb, str(ROOT / "golden" / "theories" / f"{name}.json"), "--format", fmt, *flags])
    out = capsys.readouterr().out.encode("utf-8")
    assert (rc, len(out), hashlib.sha256(out).hexdigest()) == CORPUS_PINNED[case]

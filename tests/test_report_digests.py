"""sha256 pins of the canonical report for small fixed models.

Refactors and speedups must leave every reported number, and so every
report byte, unchanged; these digests catch any drift in under a second.
Update a digest only together with a deliberate change of the numbers
or of the report schema.  DIGESTS pin the schema-v1 form, rebuilt from
the written v2 report by to_v1; DIGESTS_V2 pin the v2 report itself.
"""

import hashlib

import pytest

from realwonder import cli
from realwonder.engine import wonderful_run
from realwonder.models import (
    SpaceData,
    build_braid,
    build_fm,
    build_kt,
    build_moduli,
    build_ulyanov,
    parse_sigma,
)
from realwonder.report import build_report, to_json, to_v1

from conftest import fixed_dcp

P1 = SpaceData.projective_space(1)


CASES = {
    "moduli-n6-id": lambda: build_moduli(parse_sigma("id", 6)),
    "moduli-n6-(1 2)": lambda: build_moduli(parse_sigma("(1 2)", 6)),
    "moduli-n7-id": lambda: build_moduli(parse_sigma("id", 7)),
    "moduli-n7-(1 2)(3 4)": lambda: build_moduli(parse_sigma("(1 2)(3 4)", 7)),
    "fm-n4-P1": lambda: build_fm(4, P1),
    "fm-n5-P1": lambda: build_fm(5, P1),
    "ulyanov-n3-P1": lambda: build_ulyanov(3, P1),
    "ulyanov-n4-P1": lambda: build_ulyanov(4, P1),
    "ulyanov-n5-P1": lambda: build_ulyanov(5, P1),
    "kt-n3-P1-chain": lambda: build_kt(3, P1, [[[1, 2, 3]]]),
    "braid-n4-partition": lambda: build_braid(4, "partition"),
    "braid-n4-linear": lambda: build_braid(4, "linear"),
    "dcp-fixed": fixed_dcp,
}

DIGESTS = {
    "braid-n4-linear": "9a36582e88047857a1842e94d3f51adcfe849f2338e87542653b922bd5ee7482",
    "braid-n4-partition": "366f44783a80769a8587bfc8c9fe83114d6570a69adcd983bea20ee5ddfcf8fa",
    "dcp-fixed": "ed823490b383390197380c887a115b1f19532e04d8e81046fa63b4378f4ffa61",
    "fm-n4-P1": "88743891fbda514e2599aff02aa1332dfe68a46a852f3692a43c1e3c162afa27",
    "fm-n5-P1": "4caf851f158b2db58095bcfd3c5fecd41630dfde654a64077a5ae1b2eb0aa2d0",
    "kt-n3-P1-chain": "3769a567818dad4fb5b4a4737723d8936c8d1ec2eee80aa001463112754b18d7",
    "moduli-n6-(1 2)": "97a6b1421028f287087c788f79c021de4d7fb6007247e8d770abdbc883b1129d",
    "moduli-n6-id": "cbc197467fea485200062cd052c77305df25ec995cdd003bb25874f9b5e4459c",
    "moduli-n7-(1 2)(3 4)": "da3cd7f6d0da729e3a5b30bde0b057a2ac16230fbaeaec4c97f9e3ec4a3b9fc0",
    "moduli-n7-id": "f7089ee1df6023b5d642c7b8cfeabe27101de29eb18bdf9de39f15694ef55ccb",
    "ulyanov-n3-P1": "76600d2a47320b939803733e1c3b4168e6d9abe3a0268556619d47598f458e9f",
    "ulyanov-n4-P1": "24dbbbc4cbdbd3b229bc66c0796cc136aa846be31c6499e026fb0ca852229877",
    "ulyanov-n5-P1": "8465a7e2d1ba946b43ba47425f576ef395f05f4c13c329dfbc2e2360196d8e83",
}


DIGESTS_V2 = {
    "braid-n4-linear": "821ab27a6d807bc394cae15bee38405a08124c5368478576be4a2cd5a5ac5eab",
    "braid-n4-partition": "aa42b8d4f74e0a7558949b4de1f935e41b6bf667119ac1da438cb084ca5735fa",
    "dcp-fixed": "a8c4c5937bcf914b15b5b3fc508781daf8a3c20d0814d481afda058814c3275c",
    "fm-n4-P1": "80e7d08a1c971c60202d3a66740fe6d15828df03bde292ba856a82d19ddfdf32",
    "fm-n5-P1": "f418060616432e4cab32b06b0ca31cb2f6cde3ad24a76c8ee431a7095e5ddd78",
    "kt-n3-P1-chain": "f32dab6e9ffccbfd2612c58d21da8c4df56a88b8c67a9a374356600e9b510554",
    "moduli-n6-(1 2)": "3d6f0b6a7ef3c01047e7e21536a2e1165f99f69ddd55533742a0a2cf56267404",
    "moduli-n6-id": "f9b05486f1ce9e236bffeda0927ad67817301151b85ec2b1d5ae44425b38ec9e",
    "moduli-n7-(1 2)(3 4)": "acc18dacef1ce782fa00538a3a38a0f6db5ec4d5d157cf667aa925499b5e232f",
    "moduli-n7-id": "113a9c07bdb23ac7bfd864a9215fae53a2a08551cee3cb1ceb71e237755c780f",
    "ulyanov-n3-P1": "206195ff7f2dce4ed1d2e3e089c9d0bc8f0c9414883ffb6631794cf3491ecdaf",
    "ulyanov-n4-P1": "68735428dc426b61806a39860aa2c6f97223e6ebf0658b117e300923e8c6c9c8",
    "ulyanov-n5-P1": "7737e6ab05d0a2230b9522fb0ed56978b6033b49055d9aa1cb18d33bb1326b6f",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# the --machine report of M̅0,3 and M̅0,4, which have no blow-ups
MACHINE_DIGESTS = {
    ("3", "id"): "9d71af6f3e76f978a532a0ccfc18a9a905254d3c94a18f478f45080de7333372",
    ("4", "id"): "62079ecf928ee6e2be03fbc070c7af40222788a0656f7c3fc136511e95a98463",
    ("4", "(1 2)"): "45e8ef95b2bbb99c70833485fa82feef38470317bc0f657f42b390c50b49a019",
}


@pytest.mark.parametrize("n, sigma", sorted(MACHINE_DIGESTS))
def test_small_moduli_machine_digest(tmp_path, capsys, n, sigma):
    path = tmp_path / "report.json"
    assert cli.main(["moduli", "--n", n, "--sigma", sigma, "--machine", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MACHINE_DIGESTS[n, sigma]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest(name):
    report = build_report({"case": name}, wonderful_run(CASES[name]()))
    assert _digest(to_json(to_v1(report))) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest_v2(name):
    report = build_report({"case": name}, wonderful_run(CASES[name]()))
    assert _digest(to_json(report)) == DIGESTS_V2[name]

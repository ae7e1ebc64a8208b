"""Byte-identity of the CLI artifacts.

Each case runs one `prcodes` command line into an empty directory and
hashes what it produced: its stdout (with the output directory written
as ``<outdir>``) and every file it wrote, by name and bytes.  The
manifest's ``version`` value is blanked before hashing, so a version
bump does not change a digest; any other byte does.  The digests were
recorded before the CLI was made table-driven, so they pin the
artifacts that refactor had to keep.
"""

import hashlib
import re

import pytest

from prcodes.cli import run

VERSION = re.compile(rb'"version": "[^"]*"')


def artifact_digest(outdir, stdout: str) -> str:
    h = hashlib.sha256(stdout.replace(str(outdir), "<outdir>").encode())
    for path in sorted(outdir.iterdir()):
        head, _, body = path.read_bytes().partition(b"\n")
        h.update(path.name.encode() + b"\n")
        h.update(VERSION.sub(b'"version": ""', head, count=1) + b"\n" + body)
    return h.hexdigest()


UB = ["union-bound", "--poly", "0x13", "--n", "20", "--ebno-list", "3,4,5,6"]

CASES = {
    "reproduce table1": ["reproduce", "table1"],
    "reproduce table2": ["reproduce", "table2"],
    "reproduce table3": ["reproduce", "table3"],
    "reproduce fig1": ["reproduce", "fig1"],
    "reproduce fig2": ["reproduce", "fig2"],
    "reproduce fig3": ["reproduce", "fig3"],
    "reproduce fig4-pr": ["reproduce", "fig4-pr"],
    "reproduce fig5-pr": ["reproduce", "fig5-pr"],
    "reproduce table1 --allow-slow": ["reproduce", "table1", "--allow-slow"],
    "reproduce table2 --allow-slow": ["reproduce", "table2", "--allow-slow"],
    "reproduce fig1 --allow-slow": ["reproduce", "fig1", "--allow-slow"],
    "reproduce fig2 --allow-slow": ["reproduce", "fig2", "--allow-slow"],
    "weights": ["weights", "--poly", "0x13", "--n", "20"],
    "weights --dual": ["weights", "--poly", "0x13", "--n", "15", "--dual"],
    "avg-weights exact": ["avg-weights", "--k", "6", "--n", "14", "--mode", "exact"],
    "avg-weights approx8": ["avg-weights", "--k", "6", "--n", "14", "--mode", "approx8"],
    "avg-weights approx9": ["avg-weights", "--k", "6", "--n", "14", "--mode", "approx9"],
    "avg-weights literal9": ["avg-weights", "--k", "6", "--n", "14", "--mode", "literal9"],
    "kld dual": ["kld", "--k", "5", "--n", "12", "--which", "dual"],
    "kld primal": ["kld", "--k", "10", "--n", "25", "--which", "primal"],
    "dmin": ["dmin", "--k", "8", "--n", "20"],
    "dmin --scan": ["dmin", "--k", "8", "--n", "20", "--scan"],
    "union-bound": UB,
    "union-bound --no-prefactor": UB + ["--no-prefactor"],
    "union-bound --source exact": UB + ["--source", "exact"],
    "union-bound negative SNRs": ["union-bound", "--poly", "0x13", "--n", "20",
                                  "--ebno-list=-3,-0.5,2"],
    "simulate": ["simulate", "--poly", "0x13", "--n", "20", "--ebno-list", "2,3",
                 "--seed", "11", "--max-trials", "20000", "--target-errors", "50"],
}
SLOW = {"reproduce fig5-pr", "reproduce table1 --allow-slow",
        "reproduce table2 --allow-slow", "reproduce fig1 --allow-slow",
        "reproduce fig2 --allow-slow"}

DIGESTS = {
    "reproduce table1": "f76a33fb575d7674299090d5ce3be84d1149d9033444f99ec76766e3c2b653d3",
    "reproduce table2": "54e6e20e62658c10a23c58449b87b367132af8c7a0149459b2687406635949a7",
    "reproduce table3": "e8d007f50e6ae3c54b56a2ed8ee5cb4f99c5cd421f21921c8dbb6e6c4d463fb4",
    "reproduce fig1": "81550bdba7f1c4a5701cc4fe5f36e6b53dcb867bf35d90d37f2a135698891918",
    "reproduce fig2": "210d521c06feb77d86004e3607e7fa849c9406578e031626e41574cc8eb0a048",
    "reproduce fig3": "4f9f65ffc3dd38d62ec57797270fb0f9963bf6d4b6e73079568e7d9f6fa27982",
    "reproduce fig4-pr": "d56a1c1c3a7924e053a982461ae89dd2c5067b31b9c67fd50675b55eb6841396",
    "reproduce fig5-pr": "2144396ec1823356ea157650613a4156e9576b47ae4b87edd226bb982d241282",
    "reproduce table1 --allow-slow": "4fd5ddea75f8f7d9fecc200e55428e2bd6a70823f678a9b54202a02a96b8d726",
    "reproduce table2 --allow-slow": "d8b842d44b427ffb1f42af28724406c7bd42d9b503226c1704f088c83779c612",
    "reproduce fig1 --allow-slow": "52fb2b4c45bda70eb9098c94a3596c8d3ec7cf82d1ccfd93c3828f10f84c456c",
    "reproduce fig2 --allow-slow": "d050f7d69af4183659fa7d1f8c6192124626ce92e084f22c87fe4e841cbd426b",
    "weights": "5b8b0b03693c2ecd2bc876f9443116270790cc63d4eb121c8b022ac03bf2cc2f",
    "weights --dual": "04706954e34393b3360bf4f6cd51cf306ccdb10f705244ae355d57addab9e68b",
    "avg-weights exact": "0d46bcbc37d8f16d71b6296b99fcf613932c6273f245c8bcc33a01476b9e8638",
    "avg-weights approx8": "c7b625cbfc36f039df19a94f3b1e0eea74231a2c97c4af9fdeb5ed09de581cf0",
    "avg-weights approx9": "89ce6ee33225d960a6298b88eb39b0d2bfd62cdb04dd8ea252bfad6b5de11831",
    "avg-weights literal9": "51aac4d0e5887fbf4a4527629a9bfc5c9ae5add69fd4ffdf4365e6a23ed1ff19",
    "kld dual": "1ca27960279d7deab29b47e40ba2cd4875e4f96701999792faeb747fa5e3bd5d",
    "kld primal": "2da9081629fc10cc2238a119cdb41a750eb55b9a7f955c01edae0cfaa7386c1d",
    "dmin": "fb7770a65cb1e53bb7a0f490dc6e39029076f1d487b269c50ab08497f0949c2e",
    "dmin --scan": "254e9889f98e462c5714a0238022b72267fe2ee6ff21d6ca4bffd3df8f19aaab",
    "union-bound": "c79d24b64383049ef296e7da8f28a176b6befcbc18eca5c9ff36282029aec3e5",
    "union-bound --no-prefactor": "924dea0449b6086d048b92ece2c71f8f08795bef0f1d2a9487470f0e224fe5e0",
    "union-bound --source exact": "4df7407050ba29bed2d9edd49a54e8dfc23e8b73f8b4072b52ccb54cb86ed596",
    "union-bound negative SNRs": "f1c036c3036b144c326a3fb47750674a0a735669ed8c9b13231bff2f1cf30e71",
    "simulate": "04af4f29374de33aeb78d50988fc4950c259f2675ac66ff68bba20205856d5f3",
}


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=pytest.mark.slow) if case in SLOW else case
    for case in CASES
])
def test_artifact_bytes(tmp_path, capsys, case):
    outdir = tmp_path / "out"
    assert run(CASES[case] + ["--outdir", str(outdir)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert artifact_digest(outdir, captured.out) == DIGESTS[case]

"""Golden command line outputs: a fixed, cheap command set run in-process
must print exactly the bytes recorded for it.

Each entry pairs an argument list with the exit code and the SHA-256 of
stdout that the command produced when the digests were recorded.  A change
that means to keep the CLI output identical must leave every digest
matching; a change that alters an output on purpose updates the digest
and says why.  To print the current digests, run this file as a script:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from qcasimir.cli import main

FORMATS = ("json", "text", "latex")


def _commands() -> list[tuple[str, ...]]:
    cmds: list[tuple[str, ...]] = []
    for t, n in (("B", "2"), ("C", "3"), ("D", "4")):
        for fmt in FORMATS:
            cmds.append(("roots", "--type", t, "--rank", n, "--format", fmt))
    for t, n, lam in (
        ("B", "2", "1/2,1/2"),
        ("C", "3", "2,1,0"),
        ("D", "4", "1/2,1/2,1/2,-1/2"),
    ):
        for fmt in FORMATS:
            cmds.append(("char", "--type", t, "--rank", n, "--lambda", lam, "--format", fmt))
    for route in ("antisym", "hooks"):
        for k in range(4):
            for fmt in FORMATS:
                cmds.append(
                    ("gnk", "--type", "B", "--rank", "2", "--k", str(k),
                     "--route", route, "--format", fmt)
                )
    for fmt in FORMATS:
        cmds.append(("hc", "--type", "B", "--rank", "2", "--ell", "2", "--format", fmt))
    for fmt in ("json", "text"):
        cmds.append(
            ("eig", "--type", "C", "--rank", "3", "--lambda", "2,1,0",
             "--ell", "2", "--s", "2", "--format", fmt)
        )
    for fmt in FORMATS:
        cmds.append(("hook", "--type", "C", "--rank", "3", "--k", "5", "--r", "4", "--format", fmt))
        cmds.append(
            ("hook", "--type", "D", "--rank", "4", "--k", "4", "--r", "3", "--bar",
             "--format", fmt)
        )
    for fmt in ("json", "text"):
        cmds.append(("solve-basis", "--type", "B", "--rank", "3", "--format", fmt))
    cmds.append(("verify", "--suite", "thm44", "--type", "B", "--rank", "2"))
    cmds.append(("verify", "--suite", "torus", "--type", "B", "--rank", "2"))
    cmds.append(("verify", "--suite", "jt", "--type", "C", "--rank", "3"))
    # C and D bodies whose coefficients carry several powers of q.
    for t, n, k in (("C", "3", "3"), ("D", "4", "4")):
        for route in ("antisym", "hooks"):
            for fmt in FORMATS:
                cmds.append(
                    ("gnk", "--type", t, "--rank", n, "--k", k,
                     "--route", route, "--format", fmt)
                )
    for t, n, ell in (("C", "3", "3"), ("D", "4", "2")):
        for fmt in FORMATS:
            cmds.append(("hc", "--type", t, "--rank", n, "--ell", ell, "--format", fmt))
    for t, n in (("C", "3"), ("D", "4")):
        for fmt in ("json", "text"):
            cmds.append(("solve-basis", "--type", t, "--rank", n, "--format", fmt))
    # Evaluation at exact points: a spin weight, a negative last coordinate,
    # s below 1, the classical point s = 1, negative s, and ell = 0.
    for t, n, lam, ell, s in (
        ("B", "3", "3/2,1/2,1/2", "2", "2"),
        ("D", "4", "2,1,1,-1", "2", "3"),
        ("C", "3", "2,1,0", "2", "1/2"),
        ("C", "3", "2,1,0", "2", "1"),
        ("C", "3", "2,1,0", "2", "-2"),
        ("C", "3", "2,1,0", "0", "2"),
    ):
        for fmt in ("json", "text"):
            cmds.append(
                ("eig", "--type", t, "--rank", n, "--lambda", lam,
                 "--ell", ell, "--s", s, "--format", fmt)
            )
    cmds.append(
        ("char", "--type", "D", "--rank", "4", "--lambda", "3/2,1/2,1/2,1/2",
         "--format", "json")
    )
    # Poles of the regrouped eigenvalue sum that the eigenvalue does not
    # have: lam_n = 0 in B and D, and |lam_n| = 1/2 in D.
    for t, n, lam, ell in (
        ("B", "2", "1,0", "1"),
        ("D", "4", "1/2,1/2,1/2,1/2", "2"),
        ("D", "4", "2,1,1,0", "2"),
    ):
        for fmt in ("json", "text"):
            cmds.append(
                ("eig", "--type", t, "--rank", n, "--lambda", lam, "--ell", ell,
                 "--format", fmt)
            )
    # The raw rational oracles against both symbolic evaluations.
    for t, n in (("B", "3"), ("D", "4")):
        cmds.append(("verify", "--suite", "oracle", "--type", t, "--rank", n, "--points", "5"))
    # Torus images specialized at dominant weights: eigenvalues at s = 2
    # and 3, and the exact divisibility at every weight of the torus suite.
    for t, n in (("B", "3"), ("D", "4")):
        cmds.append(("verify", "--suite", "eigen", "--type", t, "--rank", n))
    cmds.append(("verify", "--suite", "torus", "--type", "D", "--rank", "4"))
    # The all report: its row order, the type filter on the theorem rows,
    # stability under --type and left out under --rank, properties last.
    cmds.append(("verify", "--suite", "all", "--type", "B", "--rank", "2", "--points", "1"))
    cmds.append(("verify", "--suite", "all", "--type", "C", "--points", "1"))
    # The change of basis and its certificate past the smallest systems,
    # and type D's k = n column.
    for t, n in (("C", "4"), ("D", "5")):
        cmds.append(("solve-basis", "--type", t, "--rank", n, "--format", "json"))
    cmds.append(("verify", "--suite", "basis", "--type", "D", "--rank", "5"))
    return cmds


def _run(argv: tuple[str, ...]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


GOLDEN: dict[tuple[str, ...], tuple[int, str]] = {
    ('roots', '--type', 'B', '--rank', '2', '--format', 'json'): (0, 'a5f5979fcf353f19dae48790899d5254a218a8edb456e6ca59ee2de420f9f46c'),
    ('roots', '--type', 'B', '--rank', '2', '--format', 'text'): (0, '977ff480fdab936a441afe959ffc3e723080c2e381c9c6ba7476bf72ae02240c'),
    ('roots', '--type', 'B', '--rank', '2', '--format', 'latex'): (0, '1d0498eb13c3c0b1f7bad7c00d7d7282b9322c29bf305b830ffc09ff7750a0e9'),
    ('roots', '--type', 'C', '--rank', '3', '--format', 'json'): (0, '3f30cee5d65cc47039b24f19e48bcf53579e116c53bdd9c3735c69491aae1189'),
    ('roots', '--type', 'C', '--rank', '3', '--format', 'text'): (0, 'c3868ca53b43a431bda9bb31f9a1ba100b9ba5168cf61aff8b4abefd92b695a7'),
    ('roots', '--type', 'C', '--rank', '3', '--format', 'latex'): (0, '88c843fbb5f5b39d01c3a85a0cf3d88a93895b55bbcfe389c943cda03494f537'),
    ('roots', '--type', 'D', '--rank', '4', '--format', 'json'): (0, '878e53833d135be671c718212995fa1e87a7033870306933e128202276d23561'),
    ('roots', '--type', 'D', '--rank', '4', '--format', 'text'): (0, '13154dfa8e7660edaba113345a92654e1676290ce55586b1a3c8018fae0ca357'),
    ('roots', '--type', 'D', '--rank', '4', '--format', 'latex'): (0, '8af40fb91f4274682e1bc816aac90103d949761b8aa35dd0d6754f40955e717b'),
    ('char', '--type', 'B', '--rank', '2', '--lambda', '1/2,1/2', '--format', 'json'): (0, 'd7f1c33f0e00c3399e7ae79418195dcf937b2e71181d6e0a025c44ec803d7b3c'),
    ('char', '--type', 'B', '--rank', '2', '--lambda', '1/2,1/2', '--format', 'text'): (0, 'a2ead9637658128a3a90c973a7bb79af159ef6781cd5dee9660319c425a2c962'),
    ('char', '--type', 'B', '--rank', '2', '--lambda', '1/2,1/2', '--format', 'latex'): (0, 'c0c7a8486a3c3af328552d97afa0df60fd5e77e834842b9a44e2ba9185871cb3'),
    ('char', '--type', 'C', '--rank', '3', '--lambda', '2,1,0', '--format', 'json'): (0, '041b532fc43b5aa7c01f9e754aa9dfb8103be58b2388c403bccca4660fe885bc'),
    ('char', '--type', 'C', '--rank', '3', '--lambda', '2,1,0', '--format', 'text'): (0, '93da99692a16abbd4f5193366a6e04bf199476ef8291bba31998ef66289c7932'),
    ('char', '--type', 'C', '--rank', '3', '--lambda', '2,1,0', '--format', 'latex'): (0, '3ffd656332c6023be10500487e4b61fbaec83a11fafc11657b32102e38a03665'),
    ('char', '--type', 'D', '--rank', '4', '--lambda', '1/2,1/2,1/2,-1/2', '--format', 'json'): (0, 'ab22f33287cf8e90a859ce35c2f9d24999f3ee506a0281c17df6654a0bfba75d'),
    ('char', '--type', 'D', '--rank', '4', '--lambda', '1/2,1/2,1/2,-1/2', '--format', 'text'): (0, 'ebafdf157dc38ff7c0599b4a85817610fac56bf4a8adbe61bb0d0e724c19056f'),
    ('char', '--type', 'D', '--rank', '4', '--lambda', '1/2,1/2,1/2,-1/2', '--format', 'latex'): (0, 'abfcafd8d494f7b67060ee40065b4ac1fdd44d0e7e95019c8d33c5b904fe0d40'),
    ('gnk', '--type', 'B', '--rank', '2', '--k', '0', '--route', 'antisym', '--format', 'json'): (0, 'bcf1fcd8e6377ae745a877f32f0bb3ae89da5f789dc26bd7b5f9a0ac9db57292'),
    ('gnk', '--type', 'B', '--rank', '2', '--k', '0', '--route', 'antisym', '--format', 'text'): (0, '769b470f781a1f5f0649f45a3109cafe1421dcb0af818a478f19e7ac89696b5c'),
    ('gnk', '--type', 'B', '--rank', '2', '--k', '0', '--route', 'antisym', '--format', 'latex'): (0, '6b112f07ce1ff81a2a6cfddce4079144bd874445f0e96ac3a675d4c9c14265a3'),
    ('gnk', '--type', 'B', '--rank', '2', '--k', '1', '--route', 'antisym', '--format', 'json'): (0, '0c35e9bcd795b422713339776d9525b0f460eb45140dff56a4b3c93ef735ed6b'),
    ('gnk', '--type', 'B', '--rank', '2', '--k', '1', '--route', 'antisym', '--format', 'text'): (0, '063afaec65cc426fe2fcd8c5ae4db40fbc2256f5ef94fd711eabf40a4da0bce6'),
    ('gnk', '--type', 'B', '--rank', '2', '--k', '1', '--route', 'antisym', '--format', 'latex'): (0, '568cd62ffbfa116f8e92ccfe880bd8ab8c003648888b87102b56035e7f16f84e'),
    ('gnk', '--type', 'B', '--rank', '2', '--k', '2', '--route', 'antisym', '--format', 'json'): (0, '043a9edd253fe8e90e1f24e166d23596ee6c4b52cc91d04864c02126d32ed7a6'),
    ('gnk', '--type', 'B', '--rank', '2', '--k', '2', '--route', 'antisym', '--format', 'text'): (0, '9cc2042800002abf39faae2c72dd56aa5a774e977563119471c17a445e57e738'),
    ('gnk', '--type', 'B', '--rank', '2', '--k', '2', '--route', 'antisym', '--format', 'latex'): (0, '7ffa550590e546bdb66720272c2a4d6b02c614e38d73052270ede15e36cf06ce'),
    ('gnk', '--type', 'B', '--rank', '2', '--k', '3', '--route', 'antisym', '--format', 'json'): (0, '8eb8e298a30921fcd7bf43229d679a10a11275f8ae5429cbdfeeb804eb623f83'),
    ('gnk', '--type', 'B', '--rank', '2', '--k', '3', '--route', 'antisym', '--format', 'text'): (0, 'e17c77d843c61fa678a2a4a095cb91a0a471bcc82901538897ba6f7c0c5a54f8'),
    ('gnk', '--type', 'B', '--rank', '2', '--k', '3', '--route', 'antisym', '--format', 'latex'): (0, 'f388dabdb2eeba494f3100363498412523d93b6e6b76a381b3e3b786ddf35dc5'),
    ('gnk', '--type', 'B', '--rank', '2', '--k', '0', '--route', 'hooks', '--format', 'json'): (0, 'efeac31bd64d0390f19c76c465301945af5ce14099843a7ba400e97cd691d94b'),
    ('gnk', '--type', 'B', '--rank', '2', '--k', '0', '--route', 'hooks', '--format', 'text'): (0, '769b470f781a1f5f0649f45a3109cafe1421dcb0af818a478f19e7ac89696b5c'),
    ('gnk', '--type', 'B', '--rank', '2', '--k', '0', '--route', 'hooks', '--format', 'latex'): (0, '6b112f07ce1ff81a2a6cfddce4079144bd874445f0e96ac3a675d4c9c14265a3'),
    ('gnk', '--type', 'B', '--rank', '2', '--k', '1', '--route', 'hooks', '--format', 'json'): (0, '6e342788c75f12379c12eadf655c8d67914b91314554fc5d7f87ae7f3498cfa6'),
    ('gnk', '--type', 'B', '--rank', '2', '--k', '1', '--route', 'hooks', '--format', 'text'): (0, '063afaec65cc426fe2fcd8c5ae4db40fbc2256f5ef94fd711eabf40a4da0bce6'),
    ('gnk', '--type', 'B', '--rank', '2', '--k', '1', '--route', 'hooks', '--format', 'latex'): (0, '568cd62ffbfa116f8e92ccfe880bd8ab8c003648888b87102b56035e7f16f84e'),
    ('gnk', '--type', 'B', '--rank', '2', '--k', '2', '--route', 'hooks', '--format', 'json'): (0, '01da68b4f085e3403bd2d2396829b3fe70e75be3f5cb1b17dd6eb6b93e6eb44b'),
    ('gnk', '--type', 'B', '--rank', '2', '--k', '2', '--route', 'hooks', '--format', 'text'): (0, '9cc2042800002abf39faae2c72dd56aa5a774e977563119471c17a445e57e738'),
    ('gnk', '--type', 'B', '--rank', '2', '--k', '2', '--route', 'hooks', '--format', 'latex'): (0, '7ffa550590e546bdb66720272c2a4d6b02c614e38d73052270ede15e36cf06ce'),
    ('gnk', '--type', 'B', '--rank', '2', '--k', '3', '--route', 'hooks', '--format', 'json'): (0, 'cab72b5d40227584dfa65c84590fd500ca1889c7eb5ab0def5ce46ec41a3bbea'),
    ('gnk', '--type', 'B', '--rank', '2', '--k', '3', '--route', 'hooks', '--format', 'text'): (0, 'e17c77d843c61fa678a2a4a095cb91a0a471bcc82901538897ba6f7c0c5a54f8'),
    ('gnk', '--type', 'B', '--rank', '2', '--k', '3', '--route', 'hooks', '--format', 'latex'): (0, 'f388dabdb2eeba494f3100363498412523d93b6e6b76a381b3e3b786ddf35dc5'),
    ('hc', '--type', 'B', '--rank', '2', '--ell', '2', '--format', 'json'): (0, 'ec8f35ce3aeb87134593e7202057ca35530d1a54f7bc37ad067886780297f473'),
    ('hc', '--type', 'B', '--rank', '2', '--ell', '2', '--format', 'text'): (0, '2fbdef8062e0d3667cbdb3987c9bd6f1b0c86729a23a0c049466308523ff315d'),
    ('hc', '--type', 'B', '--rank', '2', '--ell', '2', '--format', 'latex'): (0, 'ef7471c60a4cefb0e4024d102367a415e08b68bec9351a5cce831e306fd9c40c'),
    ('eig', '--type', 'C', '--rank', '3', '--lambda', '2,1,0', '--ell', '2', '--s', '2', '--format', 'json'): (0, 'ee8c327c91f5a7a011d0ead7478b0d8708a921f300c587fd2744c95b6d1a5f19'),
    ('eig', '--type', 'C', '--rank', '3', '--lambda', '2,1,0', '--ell', '2', '--s', '2', '--format', 'text'): (0, 'ff7c6a8d068eecf7fed4f068519d7dc3100c958e61792e31ed48d7a22a32da58'),
    ('hook', '--type', 'C', '--rank', '3', '--k', '5', '--r', '4', '--format', 'json'): (0, '2f7ff87ce5a738d213b58d0afbad2dff79dd1746bcef4f5171601e4a12b854a9'),
    ('hook', '--type', 'D', '--rank', '4', '--k', '4', '--r', '3', '--bar', '--format', 'json'): (0, '20eee9c1cb92336b7ae44841c0bbabf8a695c7b11d9a0d102a0097cb677ac2f0'),
    ('hook', '--type', 'C', '--rank', '3', '--k', '5', '--r', '4', '--format', 'text'): (0, 'b80b06fa7f17cf7406fae81d13d56e7172f7227ac9cb7a517a5892f8fefce0c2'),
    ('hook', '--type', 'D', '--rank', '4', '--k', '4', '--r', '3', '--bar', '--format', 'text'): (0, '8a5b12b5719278c4879a4e7d865107e6f925130ea67d5fe6fd464a55130d468c'),
    ('hook', '--type', 'C', '--rank', '3', '--k', '5', '--r', '4', '--format', 'latex'): (0, '2531b7da04610db101cc681d336afb9edd6c58aa3d7aaaf4c46e845b98ccb187'),
    ('hook', '--type', 'D', '--rank', '4', '--k', '4', '--r', '3', '--bar', '--format', 'latex'): (0, '53ca2a5b392fc8ee03808d3e5fbbe843d59509cea847e188b85ac14e7e105952'),
    ('solve-basis', '--type', 'B', '--rank', '3', '--format', 'json'): (0, '600e681d5225b6d8d8007621fa6e9614fe10a8bd7b437114a14c60b87fb278c0'),
    ('solve-basis', '--type', 'B', '--rank', '3', '--format', 'text'): (0, '25662453cd07f4ca149214f2d16b46441859adcec44296f17e468abe65a9460b'),
    ('verify', '--suite', 'thm44', '--type', 'B', '--rank', '2'): (0, '9c8bed0b610df3cdaa88ebe2cc43a8afb289d6e80f99200e1cf8a501a15d04f2'),
    ('verify', '--suite', 'torus', '--type', 'B', '--rank', '2'): (0, '8445eea17c91c6ea5971ee51083a709aff5f50365e8dd30144a0b907c3b3fa45'),
    ('verify', '--suite', 'jt', '--type', 'C', '--rank', '3'): (0, 'cf3867fe154c720046a01214fbb7bbca870ecb11b45f75ada4252799ef2d10ab'),
    ('gnk', '--type', 'C', '--rank', '3', '--k', '3', '--route', 'antisym', '--format', 'json'): (0, '91e533bb0ab671c798604c4e822fd05286bea17a0c3cb58a5fee7fa864a3d209'),
    ('gnk', '--type', 'C', '--rank', '3', '--k', '3', '--route', 'antisym', '--format', 'text'): (0, '8c65147d589ea46aaf2ccf5c36ae2139543a329e01949b27fc4bf052ebb95650'),
    ('gnk', '--type', 'C', '--rank', '3', '--k', '3', '--route', 'antisym', '--format', 'latex'): (0, 'a94026b31812ab78272850641a6be8ac231039ced42d26e1eb0b4d1e3d86638e'),
    ('gnk', '--type', 'C', '--rank', '3', '--k', '3', '--route', 'hooks', '--format', 'json'): (0, '0e23f7826259c1898089344f950e0f454c6db527528d3fcd7b90e48e89bd118d'),
    ('gnk', '--type', 'C', '--rank', '3', '--k', '3', '--route', 'hooks', '--format', 'text'): (0, '8c65147d589ea46aaf2ccf5c36ae2139543a329e01949b27fc4bf052ebb95650'),
    ('gnk', '--type', 'C', '--rank', '3', '--k', '3', '--route', 'hooks', '--format', 'latex'): (0, 'a94026b31812ab78272850641a6be8ac231039ced42d26e1eb0b4d1e3d86638e'),
    ('gnk', '--type', 'D', '--rank', '4', '--k', '4', '--route', 'antisym', '--format', 'json'): (0, 'e836f9b152892bc61ea36cf01a9114da715b45fdb40b836522d83eac66498a44'),
    ('gnk', '--type', 'D', '--rank', '4', '--k', '4', '--route', 'antisym', '--format', 'text'): (0, '4607c33aa1792f8458f50b8f43050db2d1c915f776b8de138063b46ef75e5ffa'),
    ('gnk', '--type', 'D', '--rank', '4', '--k', '4', '--route', 'antisym', '--format', 'latex'): (0, '77f564e99ea8ce902a999ff98329407a3e01d956ca1de0eb05c45f74d761daad'),
    ('gnk', '--type', 'D', '--rank', '4', '--k', '4', '--route', 'hooks', '--format', 'json'): (0, 'ea405d81d1ff0f9fa3b36f43602ad8fdd10b968d473696f10ae51c7ecb2a626c'),
    ('gnk', '--type', 'D', '--rank', '4', '--k', '4', '--route', 'hooks', '--format', 'text'): (0, '4607c33aa1792f8458f50b8f43050db2d1c915f776b8de138063b46ef75e5ffa'),
    ('gnk', '--type', 'D', '--rank', '4', '--k', '4', '--route', 'hooks', '--format', 'latex'): (0, '77f564e99ea8ce902a999ff98329407a3e01d956ca1de0eb05c45f74d761daad'),
    ('hc', '--type', 'C', '--rank', '3', '--ell', '3', '--format', 'json'): (0, '3d1c683f9b2617807b23f20169e275f5f579a58da7d2e83a31969e6f71d0ef8e'),
    ('hc', '--type', 'C', '--rank', '3', '--ell', '3', '--format', 'text'): (0, '056adca5eba464e5fb3778bf060c834005c5329cbd0772cffc5d6cb7bed8c794'),
    ('hc', '--type', 'C', '--rank', '3', '--ell', '3', '--format', 'latex'): (0, 'e8fe7faf660a279927c8366f286e1bb6617ca195f56249bdc3f2e7fdbf9d0db7'),
    ('hc', '--type', 'D', '--rank', '4', '--ell', '2', '--format', 'json'): (0, '1277ec686ebf0939f572ae1f0084f8e084393d1ddb256b60e2c966656dd026d2'),
    ('hc', '--type', 'D', '--rank', '4', '--ell', '2', '--format', 'text'): (0, 'df46f5f26b440b2d15654b4e7bd161b8d5e8cbdb017dc62514c0e1937cdf1e1d'),
    ('hc', '--type', 'D', '--rank', '4', '--ell', '2', '--format', 'latex'): (0, '0e90fafba38d8896d044057580d06df7682d782cbdd6c343fbba2af68f3fc515'),
    ('solve-basis', '--type', 'C', '--rank', '3', '--format', 'json'): (0, 'de785ff8285b4d7c03abcdf6bae5b0361e24e0c0637faf591a800c7be7ec64e1'),
    ('solve-basis', '--type', 'C', '--rank', '3', '--format', 'text'): (0, 'c140bf9ccfa0fce3cd7193613d7366e3b3bd4ff8a69cae548d14664bce4b54ac'),
    ('solve-basis', '--type', 'D', '--rank', '4', '--format', 'json'): (0, 'd0069b32f645e0ffe5e02295764dda28739a7ebaa417242ef33ff9e69ae70b4c'),
    ('solve-basis', '--type', 'D', '--rank', '4', '--format', 'text'): (0, '91464b502ada775d31dfc06e4d886ecedd838d63e196360d093ff87a6dc0d50b'),
    ('eig', '--type', 'B', '--rank', '3', '--lambda', '3/2,1/2,1/2', '--ell', '2', '--s', '2', '--format', 'json'): (0, 'b2465da7937f80f9e57d965817df55b0c9049329ac6fa6a1bb88c04ad34459d6'),
    ('eig', '--type', 'B', '--rank', '3', '--lambda', '3/2,1/2,1/2', '--ell', '2', '--s', '2', '--format', 'text'): (0, 'f91a8786faed8cf014bb9ca8409093f3763d55e1162ce0ad04011859227223a2'),
    ('eig', '--type', 'D', '--rank', '4', '--lambda', '2,1,1,-1', '--ell', '2', '--s', '3', '--format', 'json'): (0, '5062227198a8ad5406ccbbbbd9f5315be7a50cc0da2e9f37d17da00a9867550d'),
    ('eig', '--type', 'D', '--rank', '4', '--lambda', '2,1,1,-1', '--ell', '2', '--s', '3', '--format', 'text'): (0, '0b669dc025afc705b1bfdeb04fd248d25bc412326b9709e43f0fca4e97269b6c'),
    ('eig', '--type', 'C', '--rank', '3', '--lambda', '2,1,0', '--ell', '2', '--s', '1/2', '--format', 'json'): (0, '3d4f23386c8a812f5de515d2b912c4e52544a8d58fd8d3691aa4c7d766c7da4b'),
    ('eig', '--type', 'C', '--rank', '3', '--lambda', '2,1,0', '--ell', '2', '--s', '1/2', '--format', 'text'): (0, 'b70fdbbcc3c6ecf8ff77a200051946dde36cc6ec2f0dc31192e75f999c9682f1'),
    ('eig', '--type', 'C', '--rank', '3', '--lambda', '2,1,0', '--ell', '2', '--s', '1', '--format', 'json'): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('eig', '--type', 'C', '--rank', '3', '--lambda', '2,1,0', '--ell', '2', '--s', '1', '--format', 'text'): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('eig', '--type', 'C', '--rank', '3', '--lambda', '2,1,0', '--ell', '2', '--s', '-2', '--format', 'json'): (0, '0ab3244a24799aef3cbd7c072c0fcd41bf6e160b24f9e72a6d89e4f339a86052'),
    ('eig', '--type', 'C', '--rank', '3', '--lambda', '2,1,0', '--ell', '2', '--s', '-2', '--format', 'text'): (0, 'ff7c6a8d068eecf7fed4f068519d7dc3100c958e61792e31ed48d7a22a32da58'),
    ('eig', '--type', 'C', '--rank', '3', '--lambda', '2,1,0', '--ell', '0', '--s', '2', '--format', 'json'): (0, '42d37f9986b2a59d735d88c4acfcde562f3fb240103b263812151723afccab51'),
    ('eig', '--type', 'C', '--rank', '3', '--lambda', '2,1,0', '--ell', '0', '--s', '2', '--format', 'text'): (0, 'ada42771ab6d513d0d74b2ec22074a218ea7062197557c8059aeecd494e2a0f4'),
    ('char', '--type', 'D', '--rank', '4', '--lambda', '3/2,1/2,1/2,1/2', '--format', 'json'): (0, 'b84232749f8c03fb8d9d16e64a3b1504b6d9d637d95e708e35858ef92c707b32'),
    ('verify', '--suite', 'oracle', '--type', 'B', '--rank', '3', '--points', '5'): (0, '3e364143a0ac05c645d0ef4d72ae826722b2a168ac7a368858b6c8857ed81067'),
    ('verify', '--suite', 'oracle', '--type', 'D', '--rank', '4', '--points', '5'): (0, '06437cf99e5d9c9bb6510439ab227fed0fa426f5e05810ada3e1cf5b317bfc58'),
    ('eig', '--type', 'B', '--rank', '2', '--lambda', '1,0', '--ell', '1', '--format', 'json'): (0, '4a492f1744c7f67cf4d6a8c1c8f16ec0157eae709d560a6a2861931bc9a6b851'),
    ('eig', '--type', 'B', '--rank', '2', '--lambda', '1,0', '--ell', '1', '--format', 'text'): (0, '7115fbc3c1a56ebbbca65b5f80f8ec4629f97831e131b329becff1b55484bc00'),
    ('eig', '--type', 'D', '--rank', '4', '--lambda', '1/2,1/2,1/2,1/2', '--ell', '2', '--format', 'json'): (0, 'be41f30c645864a7bc3dd07082243b2f4ff2e633f5d1b0b7b18d9846f2acf39a'),
    ('eig', '--type', 'D', '--rank', '4', '--lambda', '1/2,1/2,1/2,1/2', '--ell', '2', '--format', 'text'): (0, '29d055dde49c807a0dac3a7e56654f1be450415e117b9170e102413f93b8da6f'),
    ('eig', '--type', 'D', '--rank', '4', '--lambda', '2,1,1,0', '--ell', '2', '--format', 'json'): (0, 'aea13ab9b5d65279c618efb695dd8cda03298e02ff7aa695566e9255988a47d9'),
    ('eig', '--type', 'D', '--rank', '4', '--lambda', '2,1,1,0', '--ell', '2', '--format', 'text'): (0, '5bbe7700d1125e9bd58dbfc3d810a2219d337b9bed362cdeffa15693ea7c9b30'),
    ('verify', '--suite', 'eigen', '--type', 'B', '--rank', '3'): (0, 'bac78b68f9105b5183a97f4528f90df0a3f766d36e48beab4c6084cd72d7533f'),
    ('verify', '--suite', 'eigen', '--type', 'D', '--rank', '4'): (0, '3bec6fe61dfd0b7c327c2a0992a13facd844efe26015e6b7f68a38f1635ba6d4'),
    ('verify', '--suite', 'torus', '--type', 'D', '--rank', '4'): (0, '4632f4a5672f98f87d4bbc41098ff81972cf51e17a1df53c49a9f23982927d1d'),
    ('verify', '--suite', 'all', '--type', 'B', '--rank', '2', '--points', '1'): (0, '373d9b7089770a73cdea116fd85328fc03233c14f073cb1d74320c73ba7cc480'),
    ('verify', '--suite', 'all', '--type', 'C', '--points', '1'): (0, 'a84d8c3f2adf586b79493fe52b48c9f9474338c1f10e1f4c195805e8890dee0e'),
    ('solve-basis', '--type', 'C', '--rank', '4', '--format', 'json'): (0, 'adf5aa619660edeaed80f03c70c59ee93de59b796fd9db8b70a975d3fb38479a'),
    ('solve-basis', '--type', 'D', '--rank', '5', '--format', 'json'): (0, '2336492e7167d85b5c89efd9780d2c7408ea93952b394b9a2b226c1e8467ed22'),
    ('verify', '--suite', 'basis', '--type', 'D', '--rank', '5'): (0, '36575969cfbe3a81047dffa017a6bd48091c810e82968a2509e1b4297e083208'),
}


@pytest.mark.parametrize(
    "argv", _commands(), ids=lambda a: "-".join(p.lstrip("-") for p in a)
)
def test_cli_output_matches_golden_digest(argv):
    assert _run(argv) == GOLDEN[argv]


def test_golden_table_covers_the_command_set():
    assert sorted(GOLDEN) == sorted(_commands())


if __name__ == "__main__":
    for argv in _commands():
        print(f"    {argv!r}: {_run(argv)!r},")

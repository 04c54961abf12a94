"""Byte-for-byte snapshot of the row-grid CLI paths.

Each entry holds an argv, the sha256 of its stdout, its exit code and its
stderr, as the earlier, offset-indexed `make_dispositional`, the level-by-
level q-ary parent array and the degree-pruned `iso_check` printed them.
Any rewrite of `families` or `extremal` must leave every entry as it is."""

import hashlib

import pytest

from displab.cli import main

SNAPSHOT = [
    ('extremal --order 1',
     '2167aeee345e20c5e64308aab8684f2bbca50a4e755516c9a5a7c47b5c0d8203',
     0, ''),
    ('extremal --order 2',
     '7cceae7702ec211a67cdba7994ea2449481ba5b88640b442f167b6b7b091ee59',
     0, ''),
    ('extremal --order 3',
     '6e6352767602a97d6a91d89952a47e4b0314988145a2e5d971e165762b7b777b',
     0, ''),
    ('extremal --order 4',
     '6e1c24cabfd72fe5b37203dc003c5c75cd5119178649a7cace758fc4d50f8e43',
     0, ''),
    ('extremal --order 5',
     'f218d50dbc7891f4c4e2c98c9426517fb575ee7e3e6a25f389af6327ab0d9580',
     0, ''),
    ('extremal --order 6',
     'd9b5a91fc0e0bb281247a06e723b481ec77e52b533ee25b593aaa952f8fc278f',
     0, ''),
    ('extremal --order 7',
     '91bc22cf97cd377bc631a05a5cf278d1a926ba1b83b29f3fc4c5b5110e9a4fec',
     0, ''),
    ('extremal --order 8',
     'b97f7d9e6808dbfafa41d9768b10249da110e26cf51188d71c8c1f128204283c',
     0, ''),
    ('extremal --order 9',
     '6e6da32917089b8ea12f6d638ed0b0473bd03a95bc32b3818b9d337d73626ad2',
     0, ''),
    ('families --spec dispositional:3,0;3,-1',
     '86602b68ee3b6c0fdeae0023887bfb030003c26a7317f7ad12e682e2a937be1e',
     0, ''),
    ('families --spec dispositional:1,0;1,1000000000',
     '876af3d48862fb13b3ab025f9581a89f98b370f835374be6ad1395ade4586778',
     0, ''),
    ('families --spec dispositional:0,0',
     '0fd0c750314bbb8b297684cb883cacfe328cf42c7b53998dd21b842befe5ceec',
     0, ''),
    ('families --spec dispositional:1,5',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     2, "error: bad family string 'dispositional:1,5': first row shift must be 0\n"),
    ('families --spec dispositional:2,0;0,1;2,0',
     '06185abca21f425aeeecd0d6eb00a2b2a48cf64b8c5f9c6c8adeb7ed10c44bd2',
     0, ''),
    ('families --spec dispositional:4,0;2,1;3,-2;1,0',
     'af8fcb0d21b332743932c66917dd18439e51d129b0dcb18f5bd41cf791a0a4d2',
     0, ''),
    ('families --spec dispositional:',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     2, "error: bad family string 'dispositional:': invalid literal for int() with base 10: ''\n"),
    ('families --spec dispositional:2,0;3,x',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     2, "error: bad family string 'dispositional:2,0;3,x': invalid literal for int() with base 10: 'x'\n"),
    ('families --spec staircase:7',
     '7e3189acf9ad73603f57602aea35733b3acb02e0ddc64c693e1c615f8cf2fae7',
     0, ''),
    ('families --spec tworow:3,4',
     'deeb3b3701e57632731be34b6bcae0e79dd1eb1b152647737bfd9369161c66f1',
     0, ''),
    ('families --spec qary:3,6',
     'e8161e563a7a05befc6ee59e3847b4883822218be2d1710f04dad32ea33fd691',
     0, ''),
    ('families --spec qary:1,3',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     2, "error: bad family string 'qary:1,3': need q >= 2 and level >= 1\n"),
    ('families --spec qary:2,0',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     2, "error: bad family string 'qary:2,0': need q >= 2 and level >= 1\n"),
    ('families --spec tree:-1,0,0,1',
     '6e257b0cc35bbeeb14812b30bcd817b13451467d7edf013e05bdfbc0c1831abc',
     0, ''),
    ('families --spec tree:-1,2,1',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     2, "error: bad family string 'tree:-1,2,1': parent array does not encode a tree\n"),
    ('families --spec tree:',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     2, "error: bad family string 'tree:': invalid literal for int() with base 10: ''\n"),
    ('count --family dispositional:3,0;3,-1',
     '9a92adbc0cee38ef658c71ce1b1bf8c65668f166bfb213644c895ccb1ad07a25',
     0, ''),
]


@pytest.mark.parametrize("argv, stdout_sha256, code, stderr", SNAPSHOT,
                         ids=[row[0] for row in SNAPSHOT])
def test_row_grid_cli_output_is_unchanged(capsys, argv, stdout_sha256, code,
                                          stderr):
    got = main(argv.split())
    out = capsys.readouterr()
    assert (hashlib.sha256(out.out.encode()).hexdigest(), got, out.err) \
        == (stdout_sha256, code, stderr)

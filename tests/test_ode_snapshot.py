"""Byte-for-byte snapshot of the ODE and Gram CLI paths.

Each entry holds an argv, the sha256 of its stdout, its exit code and its
stderr, as printed when `catalan_ode` was its own closed form and
`GramMatrix.to_csv` went through the `csv` module.  Any rewrite of
`companion`, `ode` or `orthogonality` must leave every entry as it is."""

import hashlib

import pytest

from displab.cli import main

SNAPSHOT = [
    ('ode --catalan 1 --r 2',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     2, 'error: r = 2 needs n >= 2\n'),
    ('ode --catalan 2 --r 2',
     'fe7ced1cecfe3d0e32125dbfed15b3b9941d206369055a4377a85fe2fc3aaa3f',
     0, ''),
    ('ode --catalan 3 --r 2',
     '3a1e321c7e4a1a3a4d25c8d07802f3bc9a54b0c651ff14b5a7dbfdf987ae6558',
     0, ''),
    ('ode --catalan 4 --r 2',
     '7ac5c7e07affeccf5df001cbf48cda45fa7adf5609b4bfdeceb3286a2b0b1df8',
     0, ''),
    ('ode --catalan 5 --r 2',
     '27b45956cf349c347fa3edbf0825bf8a61b69934ac44cb4e581085139ee3f521',
     0, ''),
    ('ode --catalan 6 --r 2',
     '5c5786f10d460cba9d5a341d938c4a07c94f98cfe2d11383474ed433f9155722',
     0, ''),
    ('ode --catalan 7 --r 2',
     '8f060d10c86b7fa3c7bd6d92596db4853e345bd7c90a5b2781e64eb3a4fd6f56',
     0, ''),
    ('ode --catalan 8 --r 2',
     '0be5dde170d35bbb7fddf80f0af792009354e54f87c531d2da803d37709d8b24',
     0, ''),
    ('ode --catalan 9 --r 2',
     'db135eb080ca06d0f3893e365a2bb8775ab40145f089d57ac62024e0cf950e23',
     0, ''),
    ('ode --catalan 10 --r 2',
     '3e84278d1bc900bf5787e8fbeca56cba70380c6f63aa452600202f7ce61b3729',
     0, ''),
    ('ode --catalan 11 --r 2',
     'fb5f3fc6e4ca9c7398d8f8cfa1f664f2cd3178c22b19f9d7b199e6616d93fb3f',
     0, ''),
    ('ode --catalan 12 --r 2',
     'd6a0719460579e9d8477afb849770a9ee3f8e0b326e5c52a0d7050f866b1b084',
     0, ''),
    ('ode --catalan 1 --r 3',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     2, 'error: r = 3 needs n >= 3\n'),
    ('ode --catalan 2 --r 3',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     2, 'error: r = 3 needs n >= 3\n'),
    ('ode --catalan 3 --r 3',
     'b250350380ace9673d06e113f09227b1eb6087f23360ad2cfb1f43d698d77d65',
     0, ''),
    ('ode --catalan 4 --r 3',
     'aab647adcbd2a1a4b14d0516e6eec2a97ad59a6fe69872122f9770f56cc55034',
     0, ''),
    ('ode --catalan 5 --r 3',
     '19eae0a9ce0d0a204c836be2a376767f8365c4ba1c69ecc586a68dcfeebb8ec0',
     0, ''),
    ('ode --catalan 6 --r 3',
     '39d41a0faa0e50c66d348fd8e48cc2874f45392aa68407feccda6d17dc4264c8',
     0, ''),
    ('ode --catalan 7 --r 3',
     '7571142d838511bdcebf0540a662f004dc16da1f6d0664ab9f8964e68c373ec0',
     0, ''),
    ('ode --catalan 8 --r 3',
     'c024c9c79660fc563a8334660aab8802ac1ee01fa10ae04a84f215199797f3be',
     0, ''),
    ('ode --catalan 9 --r 3',
     'ae01496340d2286de285a0e880b7e0e6da03746300383c9771146f7192bbcc1c',
     0, ''),
    ('ode --catalan 10 --r 3',
     '25eefdf5be5f6e7414f4bcc21f40f4417148ee4dedf1d8f94f69c22841e6b2e9',
     0, ''),
    ('ode --catalan 11 --r 3',
     '803ba96ab40fdc7a67ec3e35cd23252eb789820f2879d9f6d9514483b564e6c5',
     0, ''),
    ('ode --catalan 12 --r 3',
     'b0114a856e7c67f1d097326b74fa41469ebb9dfe996fc4be609e93e495fa1ea9',
     0, ''),
    ('ode --tworow 4,7 --r 3',
     'c3e10aae3e18b39471096de51029fbcb9a41f4ff4b61c9b7cb961dd6103bc12a',
     0, ''),
    ('gram --catalan 12 --format csv',
     '5c53071229bb132f4173acd9f070087b559deccc3a906e5b58c35bc413c62021',
     0, ''),
    ('gram --catalan 12 --format json',
     '1f10c47ebfdc7ef5a8072a132a2c904bbbb230b346dfb51441670298e0e1c95d',
     0, ''),
    ('gram --laguerre 12 --format csv',
     'e3ddb06cc5c263eb2b818c35bfbebfd951cc0aa57fee33048d348a59c04a800e',
     0, ''),
    ('gram --laguerre 12 --format json',
     '72ee6ec61ee09c51abb3317cec140faa2ad24017e6a746aef1fa0244717e87af',
     0, ''),
    ('paper-tables',
     'c5a0402e936b123e753b8eb015ddbe16459d3f719d3310484d97f543fb9f2bb9',
     0, ''),
]


@pytest.mark.parametrize("argv, stdout_sha256, code, stderr", SNAPSHOT,
                         ids=[row[0] for row in SNAPSHOT])
def test_ode_and_gram_cli_output_is_unchanged(capsys, argv, stdout_sha256,
                                              code, stderr):
    got = main(argv.split())
    out = capsys.readouterr()
    assert (hashlib.sha256(out.out.encode()).hexdigest(), got, out.err) \
        == (stdout_sha256, code, stderr)

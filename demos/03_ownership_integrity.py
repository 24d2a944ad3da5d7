"""Process-ownership integrity: forged credentials change nothing.

Every process's (uid, gid) is recorded when it forks.  An attacker who
rewrites the credentials the guest kernel sees still gets decisions computed
with the fork-time identity, and the tampering is flagged in the log.
"""

import sys

from hvguard import PermissionOctets, Simulation, parse_sacl

sacl = parse_sacl("/home/user/secret.txt 600 1000 1000\n")

sim = Simulation(sacl=sacl)
sim.add_file("/home/user", 1000, 1000, PermissionOctets(7, 5, 5), is_directory=True)
sim.add_file("/home/user/secret.txt", 1000, 1000, PermissionOctets(6, 0, 0))

# The attacker's shell forked as uid 2000, then flipped its own credentials
# to root inside the guest.
sim.spawn(1, 2000, 2000, pid=7)
sim.forge_credentials(7, 0, 0)

verdict, outcome = sim.syscall(7, "open", "/home/user/secret.txt", flags=["O_RDONLY"])
print("claimed uid 0, resolved uid:", verdict.resolved_uid)
print("mismatch flagged:", verdict.mismatch)
print("decision:", verdict.decision, "| guest outcome:", outcome.error)

# A legitimate elevation (sudo) updates the record, so usability survives.
sim.spawn(1, 1000, 1000, pid=8)
sim.sudo(8, 0, 0)
verdict, _ = sim.syscall(8, "open", "/home/user/secret.txt", flags=["O_RDONLY"])
print("\nafter a trusted sudo, resolved uid:", verdict.resolved_uid)
print("decision:", verdict.decision, "(root matches neither owner nor group octet: per-user limits bind root too)")

print("\ndecision log:")
sim.decision_log(sys.stdout.write)
print()

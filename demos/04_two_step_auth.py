"""Challenge-response second authentication over an artificial open().

A uid with a secret in the policy options stays "unauthenticated" after
login: every SACL-listed path is denied until the user proves possession of
the shared secret by opening /tokens/<challenge><sha512(challenge + secret)>.
The token open itself is permitted but fails against the nonexistent path,
exactly what a touch of an artificial file name looks like.
"""

from hvguard import PermissionOctets, PolicyOptions, Simulation, parse_sacl, token_response

SECRET = "gatekeeper"

sim = Simulation(
    sacl=parse_sacl("/home/user/test1.txt 644 1000 1000\n"),
    options=PolicyOptions(secrets={1000: SECRET}, window=300),
)
sim.add_file("/home/user", 1000, 1000, PermissionOctets(7, 5, 5), is_directory=True)
sim.spawn(1, 1000, 1000, pid=2)

verdict, outcome = sim.syscall(2, "open", "/home/user/test1.txt", flags=["O_CREAT", "O_WRONLY"])
print("before second auth:", verdict.decision, f"({verdict.reason});",
      "shell sees:", outcome.error)

token = "/tokens/111" + token_response("111", SECRET)
print(f"\npresenting token ({len(token) - len('/tokens/')} hex chars after the prefix)")
verdict, outcome = sim.syscall(2, "open", token, flags=["O_CREAT", "O_WRONLY"])
print("token open:", verdict.decision, "| guest outcome:", outcome.error,
      "(the artificial path never exists)")
print("session valid through tick", sim.sessions[1000])

verdict, outcome = sim.syscall(2, "open", "/home/user/test1.txt", flags=["O_CREAT", "O_WRONLY"])
print("\nafter second auth:", verdict.decision, "| file created:", outcome.success)

# A wrong response of the right shape is swallowed silently: no session.
sim2 = Simulation(
    sacl=parse_sacl("/home/user/test1.txt 644 1000 1000\n"),
    options=PolicyOptions(secrets={1000: SECRET}),
)
sim2.spawn(1, 1000, 1000, pid=2)
bad = "/tokens/111" + "0" * 128
sim2.syscall(2, "open", bad, flags=["O_CREAT", "O_WRONLY"])
print("\nwrong response accepted?", 1000 in sim2.sessions)
